"""Simulated MPI.

The paper's evaluation runs 512 MPI ranks across 128 nodes; in this
reproduction ranks are Python threads inside one process, communicating
through an in-memory world.  The API follows mpi4py conventions:
lowercase methods (``send``/``recv``/``allreduce``/...) move arbitrary
Python objects; the uppercase ``Allreduce`` moves a numpy buffer
without pickling.

Every operation charges simulated communication time (a classical
alpha-beta cost model) to the calling rank's clock, and collectives
align participants' clocks the way real blocking collectives align
wall-clock time.  This is what lets the harness reason about paper-scale
timing while the numerics run at laptop scale.

Entry point: :func:`~repro.mpi.comm.run_spmd` launches an SPMD region::

    def main(comm):
        part = comm.allreduce(comm.rank, op="sum")
        return part

    results = run_spmd(4, main)
"""

from repro.mpi.comm import (
    Communicator,
    SelfCommunicator,
    ThreadCommunicator,
    CommCostModel,
    run_spmd,
)
from repro.mpi.partition import slab_bounds, owner_of

__all__ = [
    "Communicator",
    "SelfCommunicator",
    "ThreadCommunicator",
    "CommCostModel",
    "run_spmd",
    "slab_bounds",
    "owner_of",
]
