"""Newton++ — the n-body simulation used in the paper's evaluation.

"Newton++ is an open source direct n-body simulation with a second
order, time reversible, symplectic integration scheme.  Newton++ is
written in C++ and parallelized with MPI and OpenMP device offload.
Each MPI rank owns a unique spatial subdomain of the simulated volume
and is responsible for integrating bodies within its subdomain.  As
bodies evolve in time, a repartitioning phase migrates bodies that have
moved outside of a given subdomain to the correct MPI rank.  Newton++
is instrumented with SENSEI, and it has a VTK compatible output format
for post processing and visualization." (Section 4.1)

This package reproduces all of that on the simulated substrate:

- :mod:`~repro.newton.bodies` — SoA body container;
- :mod:`~repro.newton.ic` — uniform-random initial conditions (with the
  massive central body of Figure 1) and a Plummer-sphere galaxy
  initializer standing in for MAGI;
- :mod:`~repro.newton.forces` — all-pairs softened gravity on SoA tiles;
- :mod:`~repro.newton.integrator` — kick-drift-kick leapfrog (second
  order, time reversible, symplectic);
- :mod:`~repro.newton.domain` — slab subdomains and repartitioning;
- :mod:`~repro.newton.solver` — the MPI+offload solver, SENSEI
  instrumented;
- :mod:`~repro.newton.adaptor` — the SENSEI data adaptor publishing the
  body table zero-copy.
"""

from repro.newton.bodies import Bodies
from repro.newton.ic import plummer_galaxy, uniform_random
from repro.newton.forces import accelerations, potential_energy, kinetic_energy
from repro.newton.integrator import leapfrog_step
from repro.newton.domain import SlabDomain
from repro.newton.solver import NewtonSolver, SolverConfig
from repro.newton.adaptor import NewtonDataAdaptor

__all__ = [
    "Bodies",
    "uniform_random",
    "plummer_galaxy",
    "accelerations",
    "potential_energy",
    "kinetic_energy",
    "leapfrog_step",
    "SlabDomain",
    "NewtonSolver",
    "SolverConfig",
    "NewtonDataAdaptor",
]
