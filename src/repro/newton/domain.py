"""Spatial subdomains and the repartitioning phase.

"Each MPI rank owns a unique spatial subdomain of the simulated volume
and is responsible for integrating bodies within its subdomain.  As
bodies evolve in time, a repartitioning phase migrates bodies that have
moved outside of a given subdomain to the correct MPI rank."
(paper Section 4.1)

The decomposition is 1-D slabs along x (bodies escaping the global
bounds are owned by the boundary ranks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.mpi.comm import Communicator
from repro.mpi.partition import owner_of
from repro.newton.bodies import Bodies

__all__ = ["SlabDomain"]


@dataclass(frozen=True)
class SlabDomain:
    """One rank's slab of the global x-interval ``[lo, hi)``."""

    lo: float
    hi: float
    rank: int
    size: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise SolverError(f"empty global interval: [{self.lo}, {self.hi})")
        if not 0 <= self.rank < self.size:
            raise SolverError(f"invalid rank {self.rank} of {self.size}")

    @classmethod
    def create(cls, lo: float, hi: float, comm: Communicator) -> "SlabDomain":
        return cls(lo=float(lo), hi=float(hi), rank=comm.rank, size=comm.size)

    def owners(self, bodies: Bodies) -> np.ndarray:
        """The owning rank of each body (by x coordinate)."""
        return owner_of(bodies.x, self.lo, self.hi, self.size)

    def select_initial(self, bodies: Bodies) -> Bodies:
        """This rank's share of a globally replicated initial condition."""
        return bodies.select(self.owners(bodies) == self.rank)

    def repartition(self, bodies: Bodies, comm: Communicator) -> Bodies:
        """Migrate escaped bodies to their owning ranks (alltoall).

        Returns the new local body set.  Total body count and mass are
        conserved across the exchange (asserted by tests).
        """
        if comm.size == 1:
            return bodies
        owners = self.owners(bodies)
        outgoing: list[Bodies | None] = []
        for dest in range(comm.size):
            if dest == self.rank:
                outgoing.append(None)  # kept locally, not sent
            else:
                mask = owners == dest
                outgoing.append(bodies.select(mask) if mask.any() else None)
        received = comm.alltoall(outgoing)
        kept = bodies.select(owners == self.rank)
        received[self.rank] = kept
        return Bodies.concatenate([p for p in received if p is not None])
