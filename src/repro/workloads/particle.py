"""An irregular particle workload with a migrating hotspot.

Structurally the opposite of the regular stencil: work per grid cell
follows the *particles*, and the particles follow a hotspot that
drifts across the (periodic) unit domain at ``hotspot_speed`` per
step.  Load skew therefore migrates — a static partition that was
balanced at step 0 is wrong by step 20 — which is exactly the shape
the adaptive repartitioner must chase rather than fix once.

The particle state is replicated: every rank integrates the identical
seeded system (positions/velocities from ``random.Random(seed)``,
float64 numerics), so no particle exchange is needed and the physics
is bit-identical across ranks and runs by construction.  What is
*distributed* is the density grid — a halo-1
:class:`~repro.array.array.DistributedArray` over ``length`` cells —
and the charged compute cost: each rank pays for the particles in the
cells it owns (hotspot particles cost ``hotspot_strength`` extra),
feeding per-block charges to the
:class:`~repro.array.coordinate.ArrayCoordinator` when ``adaptive``.

Runs standalone (:meth:`ParticleWorkload.run`), as a service producer
(:func:`particle_producer`), and under the array plane — the zoo's
"irregular" entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.array.array import DistributedArray
from repro.array.coordinate import ArrayCoordinator
from repro.array.halo import HaloExchanger
from repro.array.partition import ArrayPartition
from repro.errors import ArrayError
from repro.hamr.runtime import current_clock
from repro.hw.node import num_devices
from repro.svtk.table import TableData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.plan import ControlPlane
    from repro.mpi.comm import Communicator
    from repro.transport.config import TransportConfig

__all__ = ["ParticleConfig", "ParticleWorkload", "particle_producer"]


@dataclass(frozen=True)
class ParticleConfig:
    """Everything one particle run needs (identical on every rank)."""

    n_particles: int = 2048
    length: int = 256              # density grid cells over [0, 1)
    steps: int = 16
    dt: float = 1.0                # simulation seconds per step
    seed: int = 7
    partitioner: str = "block"     # initial grid layout
    block_rows: int | None = None  # ownership granularity
    device_id: int | None = 0      # base device; rank r lands on
    #: ``(device_id + r) mod n_devices`` (None = host).  Spreading the
    #: ranks keeps per-device pools/streams single-writer, which the
    #: trace plane's byte-stable re-recording contract depends on.
    compute_rate: float = 2.0e6    # charged particle-updates per second
    #: Hotspot: a band of half-width ``hotspot_width / 2`` around a
    #: center that starts at ``hotspot_start`` and advances
    #: ``hotspot_speed`` (domain fractions) per step, wrapping.
    #: Particles inside it charge ``hotspot_strength`` extra updates
    #: each, and every particle drifts toward the center at ``drift``.
    hotspot_strength: float = 4.0
    hotspot_width: float = 0.125
    hotspot_speed: float = 0.03
    hotspot_start: float = 0.2
    drift: float = 0.05

    def __post_init__(self):
        if self.n_particles < 1:
            raise ArrayError(f"n_particles must be >= 1: {self.n_particles}")
        if self.steps < 1:
            raise ArrayError(f"steps must be >= 1: {self.steps}")
        if self.compute_rate <= 0:
            raise ArrayError(f"compute_rate must be > 0: {self.compute_rate}")
        if not 0.0 <= self.hotspot_width <= 1.0:
            raise ArrayError(
                f"hotspot_width must be in [0, 1]: {self.hotspot_width}"
            )
        if self.hotspot_strength < 0:
            raise ArrayError(
                f"hotspot_strength must be >= 0: {self.hotspot_strength}"
            )

    def hotspot_center(self, step: int) -> float:
        """The hotspot's center at ``step`` (periodic unit domain)."""
        return (self.hotspot_start + self.hotspot_speed * step) % 1.0


class ParticleWorkload:
    """One rank's view of the particle run (construct SPMD-identically)."""

    def __init__(
        self,
        comm: "Communicator",
        config: ParticleConfig,
        transport: "TransportConfig | None" = None,
        plane: "ControlPlane | None" = None,
        adaptive: bool = False,
        interval: int = 4,
        name: str = "particles",
    ):
        self.comm = comm
        self.config = config
        self.name = str(name)
        partition = ArrayPartition(
            config.length, comm.size,
            partitioner=config.partitioner,
            block_rows=config.block_rows,
        )
        device_id = config.device_id
        if device_id is not None:
            device_id = (int(device_id) + comm.rank) % max(1, num_devices())
        self.density = DistributedArray(
            comm, partition, dtype=np.float64, halo=1,
            device_id=device_id, name=name,
        )
        self.exchanger = HaloExchanger(comm, transport, name=name)
        self.coordinator: ArrayCoordinator | None = None
        if adaptive:
            self.coordinator = ArrayCoordinator(
                self.density, self.exchanger, plane=plane, interval=interval,
            )
        # Replicated seeded state: cross-version-stable Python RNG for
        # the draws, float64 numpy for the integration.
        rng = random.Random(config.seed)
        n = config.n_particles
        self.x = np.array([rng.random() for _ in range(n)], dtype=np.float64)
        self.v = np.array(
            [(rng.random() - 0.5) * 0.02 for _ in range(n)], dtype=np.float64
        )
        self.busy_time = 0.0
        self.steps_run = 0
        self._counts = np.zeros(config.length, dtype=np.float64)
        self._closed = False

    def _circular_delta(self, target: float, values: np.ndarray) -> np.ndarray:
        """Shortest signed distance from ``values`` to ``target`` mod 1."""
        return ((target - values + 0.5) % 1.0) - 0.5

    def cells(self) -> np.ndarray:
        """Each particle's density cell index."""
        cfg = self.config
        return np.minimum(
            (self.x * cfg.length).astype(np.int64), cfg.length - 1
        )

    def step(self, step: int) -> dict[int, float]:
        """Advance the particles; returns the per-block charged seconds."""
        if self._closed:
            raise ArrayError("particle workload already closed")
        cfg = self.config
        center = cfg.hotspot_center(step)
        pull = self._circular_delta(center, self.x)
        self.x = (self.x + (self.v + cfg.drift * pull) * cfg.dt) % 1.0
        cells = self.cells()
        counts = np.bincount(cells, minlength=cfg.length).astype(np.float64)
        self._counts = counts
        # Hotspot cells charge extra per particle.
        centers = (np.arange(cfg.length, dtype=np.float64) + 0.5) / cfg.length
        hot = (
            np.abs(self._circular_delta(center, centers))
            < cfg.hotspot_width / 2.0
        )
        weights = counts * (1.0 + cfg.hotspot_strength * hot)
        self.exchanger.exchange(self.density, step)
        clock = current_clock()
        block_busy: dict[int, float] = {}
        for b in sorted(self.density.shards):
            shard = self.density.shards[b]
            shard.interior[:] = counts[shard.start:shard.stop]
            cost = float(
                weights[shard.start:shard.stop].sum() / cfg.compute_rate
            )
            clock.advance(cost)
            block_busy[b] = cost
            self.busy_time += cost
        if self.coordinator is not None:
            self.coordinator.observe(step, block_busy, t=step * cfg.dt)
        self.steps_run += 1
        return block_busy

    def table(self) -> TableData:
        """The particles in this rank's owned cells (``id`` + ``x``)."""
        cells = self.cells()
        owned = np.zeros(cells.shape, dtype=bool)
        for _b, start, stop, _interior in self.density.local_spans():
            owned |= (cells >= start) & (cells < stop)
        ids = np.nonzero(owned)[0].astype(np.int64)
        table = TableData(self.name)
        table.add_host_column("id", ids)
        table.add_host_column("x", self.x[owned].astype(np.float64))
        return table

    def run(self, bridge=None, mesh: str | None = None) -> dict:
        """Run every configured step; optionally publish through a bridge."""
        from repro.sensei.data_adaptor import TableDataAdaptor

        cfg = self.config
        adaptor = TableDataAdaptor(comm=self.comm)
        for k in range(1, cfg.steps + 1):
            self.step(k)
            if bridge is not None:
                adaptor.set_table(mesh or self.name, self.table())
                adaptor.set_step(k, k * cfg.dt)
                bridge.execute(adaptor)
        return self.summary()

    def summary(self) -> dict:
        """Collective: checksums plus this rank's cost/traffic counters."""
        c = self.coordinator
        return {
            "steps": self.steps_run,
            "checksum": float(np.sum(self.x)),
            "density_sum": self.density.reduce("sum"),
            "busy_time": self.busy_time,
            "halo_bytes": self.exchanger.halo_bytes_moved,
            "handoff_bytes": self.exchanger.handoff_bytes_moved,
            "repartitions": c.repartitions if c is not None else 0,
            "blocks_moved": c.blocks_moved if c is not None else 0,
            "owners": tuple(self.density.partition.owners),
        }

    def close(self) -> None:
        """Collective: drain the exchanger's flows, free the shards."""
        if self._closed:
            return
        self.exchanger.close()
        self.density.close()
        self._closed = True


def particle_producer(
    config: ParticleConfig,
    transport: "TransportConfig | None" = None,
    adaptive: bool = False,
    interval: int = 4,
    mesh: str = "particles",
):
    """A ``producer_main`` for ``run_in_transit`` / ``run_service``.

    Each producer rank advances the replicated particle system and
    ships its owned particles through the bridge every step; the
    bridge's control plane (when attached) receives the repartition
    decisions.
    """

    def producer_main(sim_comm, bridge):
        workload = ParticleWorkload(
            sim_comm, config, transport=transport,
            plane=getattr(bridge, "control_plane", None),
            adaptive=adaptive, interval=interval, name=mesh,
        )
        try:
            result = workload.run(bridge=bridge, mesh=mesh)
        finally:
            workload.close()
        return result

    return producer_main
