"""The Newton++ solver: MPI + device offload, SENSEI instrumented.

Per step (KDK leapfrog):

1. allgather the global body positions/masses (direct n-body needs all
   sources; the communicator charges the exchange),
2. evaluate accelerations on this rank's assigned device — the kernel
   runs through :func:`repro.pm.kernels.launch` under the OpenMP
   offload PM, so the roofline cost lands on the device timeline,
3. integrate the local bodies,
4. every ``repartition_every`` steps, migrate escaped bodies
   (the paper's runs disabled repartitioning; so does the harness).

Each rank drives one device: by default device ``rank mod n_devices``
(one simulation rank per GPU, as in all of the paper's placements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.hamr.runtime import current_clock
from repro.hamr.stream import default_stream
from repro.hamr.stream import StreamMode
from repro.hw.node import num_devices
from repro.mpi.comm import Communicator, SelfCommunicator
from repro.mpi.waits import off_scheduler
from repro.newton.domain import SlabDomain
from repro.newton.forces import accelerations, pair_flops, total_energy
from repro.newton.ic import plummer_galaxy, uniform_random
from repro.newton.integrator import leapfrog_step
from repro.pm.kernels import launch

__all__ = ["SolverConfig", "NewtonSolver"]


@dataclass(frozen=True)
class SolverConfig:
    """Newton++ run parameters."""

    n_bodies: int = 1000          # global body count
    dt: float = 1e-3
    softening: float = 1e-2
    box: float = 1.0              # global domain is [-box, box) in x
    seed: int = 0
    ic: str = "uniform"           # "uniform" or "plummer"
    central_mass: float = 0.0
    vel_scale: float = 0.1
    mass_range: tuple[float, float] = (0.5, 1.5)
    repartition_every: int = 0    # 0 = disabled (as in the paper's runs)
    tile: int = 2048
    device_id: int | None = None  # None = rank mod n_devices

    def __post_init__(self):
        if self.n_bodies < 1:
            raise SolverError(f"n_bodies must be >= 1: {self.n_bodies}")
        if self.dt <= 0:
            raise SolverError(f"dt must be positive: {self.dt}")
        if self.softening <= 0:
            raise SolverError(f"softening must be positive: {self.softening}")
        if self.tile < 1:
            raise SolverError(f"tile must be >= 1: {self.tile}")
        if self.ic not in ("uniform", "plummer"):
            raise SolverError(f"unknown ic {self.ic!r}; use 'uniform' or 'plummer'")
        if self.repartition_every < 0:
            raise SolverError("repartition_every must be >= 0")


class NewtonSolver:
    """One rank's solver instance."""

    def __init__(self, config: SolverConfig, comm: Communicator | None = None):
        self.config = config
        self.comm = comm if comm is not None else SelfCommunicator()
        if config.device_id is not None:
            self.device_id = int(config.device_id)
        else:
            self.device_id = self.comm.rank % max(1, num_devices())
        self.domain = SlabDomain.create(-config.box, config.box, self.comm)

        # Every rank generates the identical global IC (same seed), then
        # keeps its slab — no root-then-scatter traffic needed.
        if config.ic == "uniform":
            global_bodies = uniform_random(
                config.n_bodies,
                seed=config.seed,
                box=config.box,
                mass_range=config.mass_range,
                vel_scale=config.vel_scale,
                central_mass=config.central_mass,
            )
        else:
            global_bodies = plummer_galaxy(n=config.n_bodies, seed=config.seed)
        self.bodies = self.domain.select_initial(global_bodies)

        self.step_count = 0
        self.time = 0.0
        self._acc: np.ndarray | None = None
        #: Simulated seconds spent in the solver, per step.
        self.step_times: list[float] = []
        self.repartition_times: list[float] = []

    # -- force evaluation ----------------------------------------------------------
    def _gather_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """Global source positions (a view of SoA rows) and masses via allgather."""
        b = self.bodies
        # One snapshot before posting: the threaded world passes
        # references, and a peer's in-place integration must not be
        # visible mid-read (real MPI copies at send time).
        soa = np.stack((b.x, b.y, b.z, b.mass))
        if self.comm.size > 1:
            soa = np.concatenate(self.comm.allgather(tuple(soa)), axis=1)
        return soa[:3].T, soa[3]

    def _accel_fn(self, positions: np.ndarray) -> np.ndarray:
        """Acceleration evaluation as a device kernel."""
        src_pos, src_mass = self._gather_sources()
        out = np.empty((positions.shape[0], 3))

        def kernel() -> None:
            # Pure numpy over arrays no other context sees, and the
            # bulk of a step's wall time: it runs beside the baton
            # holder, and launch charges its roofline time afterwards.
            with off_scheduler():
                out[...] = accelerations(
                    positions,
                    src_pos,
                    src_mass,
                    softening=self.config.softening,
                    tile=self.config.tile,
                )

        n_t, n_s = positions.shape[0], src_mass.size
        launch(
            kernel,
            device_id=self.device_id,
            flops=pair_flops(n_t, n_s),
            bytes_moved=8.0 * (3 * n_t + 4 * n_s + 3 * n_t),
            stream=default_stream(self.device_id),
            mode=StreamMode.SYNC,
            name="nbody-accel",
        )
        return out

    # -- stepping ---------------------------------------------------------------------
    def step(self) -> None:
        """Advance one time step (collective across ranks)."""
        clock = current_clock()
        t0 = clock.now
        self._acc = leapfrog_step(
            self.bodies, self.config.dt, self._accel_fn, acc=self._acc
        )
        self.step_count += 1
        self.time += self.config.dt
        self.step_times.append(clock.now - t0)

        every = self.config.repartition_every
        if every and self.step_count % every == 0:
            r0 = clock.now
            self.bodies = self.domain.repartition(self.bodies, self.comm)
            self._acc = None  # local set changed; cached forces invalid
            self.repartition_times.append(clock.now - r0)

    def run(self, n_steps: int, bridge=None, adaptor=None) -> None:
        """Run ``n_steps``, invoking SENSEI after every step if given.

        This is the instrumentation pattern from the paper's evaluation:
        "In situ processing via SENSEI was performed at every iteration."
        """
        if (bridge is None) != (adaptor is None):
            raise SolverError("pass both bridge and adaptor, or neither")
        for _ in range(int(n_steps)):
            self.step()
            if bridge is not None:
                adaptor.update(self)
                bridge.execute(adaptor)

    # -- diagnostics ----------------------------------------------------------------------
    @property
    def n_local(self) -> int:
        return self.bodies.n

    def global_energy(self) -> float:
        """Total system energy (collective; every rank gets the value)."""
        # positions / velocities are already fresh (n, 3) copies.
        parts = self.comm.allgather(
            (self.bodies.positions, self.bodies.velocities, self.bodies.mass.copy())
        )
        pos = np.concatenate([p[0] for p in parts])
        vel = np.concatenate([p[1] for p in parts])
        mass = np.concatenate([p[2] for p in parts])
        return total_energy(pos, vel, mass, softening=self.config.softening)

    @property
    def mean_step_time(self) -> float:
        """Average simulated solver seconds per iteration."""
        if not self.step_times:
            return 0.0
        return float(np.mean(self.step_times))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NewtonSolver(rank={self.comm.rank}/{self.comm.size}, "
            f"n_local={self.n_local}, device={self.device_id}, "
            f"step={self.step_count})"
        )
