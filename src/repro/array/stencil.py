"""A bandwidth-bound 1-D Jacobi heat stencil over a DistributedArray.

The first end-to-end consumer of the array plane: every rank advances
``u_i += alpha * (u_{i-1} - 2 u_i + u_{i+1})`` over its shards each
step, with ghost rows refreshed by the
:class:`~repro.array.halo.HaloExchanger` at the step boundary and
zero Dirichlet boundaries at the global edges (the never-written edge
ghosts stay at their allocation fill).

Compute cost is charged to the simulated clock at ``compute_rate``
rows per second.  An optional *hotspot* — a global index range whose
rows charge ``hotspot_cost`` extra seconds-per-row multiples from step
``hotspot_from`` on — injects load skew **into the cost model only**:
the numerics are untouched, so adaptive repartitioning must produce
bit-identical physics while beating the static layouts on charged
time.  Per-block charges feed the
:class:`~repro.array.coordinate.ArrayCoordinator`, closing the
repartition loop when ``adaptive`` is set.

The workload runs standalone (:meth:`StencilWorkload.run`) or as an
in-transit producer (:func:`stencil_producer` plugs into
``run_in_transit`` / ``run_service``, publishing the owned rows as a
table each step).
"""

from __future__ import annotations

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

__all__ = ["StencilConfig", "StencilWorkload", "stencil_producer"]


@dataclass(frozen=True)
class StencilConfig:
    """Everything one stencil run needs (identical on every rank)."""

    length: int = 4096             # global rows
    steps: int = 32
    alpha: float = 0.25            # diffusion number (stable <= 0.5)
    dt: float = 1.0                # simulation seconds per step
    partitioner: str = "block"     # initial layout
    block_rows: int | None = None  # ownership granularity
    device_id: int | None = 0      # base device; rank r lands on
    #: ``(device_id + r) mod n_devices`` (None = host).  Spreading the
    #: ranks keeps per-device pools/streams single-writer, so shard
    #: alloc/free churn costs do not depend on thread arrival order.
    compute_rate: float = 2.0e8    # charged rows per simulated second
    #: Hotspot: global index fraction range [lo, hi) whose rows charge
    #: ``hotspot_cost`` additional row-costs each, from step
    #: ``hotspot_from`` on.  ``hotspot_cost=0`` disables it.
    hotspot: tuple[float, float] = (0.0, 0.25)
    hotspot_cost: float = 0.0
    hotspot_from: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ArrayError(f"alpha must be in (0, 0.5]: {self.alpha}")
        if self.steps < 1:
            raise ArrayError(f"steps must be >= 1: {self.steps}")
        if self.compute_rate <= 0:
            raise ArrayError(
                f"compute_rate must be > 0: {self.compute_rate}"
            )
        lo, hi = self.hotspot
        if not 0.0 <= lo <= hi <= 1.0:
            raise ArrayError(
                f"hotspot must satisfy 0 <= lo <= hi <= 1: ({lo}, {hi})"
            )
        if self.hotspot_cost < 0:
            raise ArrayError(
                f"hotspot_cost must be >= 0: {self.hotspot_cost}"
            )

    @property
    def hotspot_rows(self) -> tuple[int, int]:
        """The hotspot's global row range ``[lo, hi)``."""
        lo, hi = self.hotspot
        return int(lo * self.length), int(hi * self.length)


class StencilWorkload:
    """One rank's view of the stencil run (construct SPMD-identically).

    ``adaptive`` arms the repartition loop: an
    :class:`~repro.array.coordinate.ArrayCoordinator` allreduces the
    per-block charges every ``interval`` steps and re-cuts the
    partition when the governor fires.  ``plane`` routes the decisions
    into a shared control-plane log (and supplies skew/cooldown/cadence
    configuration when given).
    """

    def __init__(
        self,
        comm: "Communicator",
        config: StencilConfig,
        transport: "TransportConfig | None" = None,
        plane: "ControlPlane | None" = None,
        adaptive: bool = False,
        interval: int = 4,
        name: str = "stencil",
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
        self.u = DistributedArray(
            comm, partition, dtype=np.float64, halo=1,
            device_id=device_id, name=name,
        )
        self.exchanger = HaloExchanger(comm, transport, name=name)
        self.coordinator: ArrayCoordinator | None = None
        if adaptive:
            self.coordinator = ArrayCoordinator(
                self.u, self.exchanger, plane=plane, interval=interval,
            )
        # Deterministic initial condition: one full sine period, zero
        # at both Dirichlet edges.
        x = np.arange(config.length, dtype=np.float64)
        self.u[:] = np.sin(2.0 * np.pi * x / config.length)
        self.busy_time = 0.0
        self.steps_run = 0
        self._swept: tuple = (None, [])
        self._closed = False

    def _block_cost(self, start: int, stop: int, live: bool) -> float:
        """Charged seconds for one block's update (``live``: hotspot on)."""
        cfg = self.config
        rows = stop - start
        cost = rows / cfg.compute_rate
        if cfg.hotspot_cost > 0.0 and live:
            hlo, hhi = cfg.hotspot_rows
            hot = max(0, min(stop, hhi) - max(start, hlo))
            cost += hot * cfg.hotspot_cost / cfg.compute_rate
        return cost

    def _sweep(self) -> list[tuple]:
        """``(block, left, mid, right, cold_cost, hot_cost)`` per owned
        block, rebuilt only when a repartition installs a new partition."""
        u = self.u
        if self._swept[0] is not u.partition:
            self._swept = (u.partition, [(
                b, s.padded[:s.rows], s.padded[1:-1], s.padded[2:],
                self._block_cost(s.start, s.stop, False),
                self._block_cost(s.start, s.stop, True),
            ) for b, s in sorted(u.shards.items())])
        return self._swept[1]

    def step(self, step: int) -> dict[int, float]:
        """One Jacobi sweep; returns the per-block charged seconds."""
        if self._closed:
            raise ArrayError("stencil workload already closed")
        cfg = self.config
        self.exchanger.exchange(self.u, step)
        clock = current_clock()
        hot = step >= cfg.hotspot_from
        block_busy: dict[int, float] = {}
        for b, left, mid, right, cold_cost, hot_cost in self._sweep():
            mid[:] = mid + cfg.alpha * (left - 2.0 * mid + right)
            cost = hot_cost if hot else cold_cost
            clock.advance(cost)
            block_busy[b] = cost
            self.busy_time += cost
        if self.coordinator is not None:
            self.coordinator.observe(step, block_busy, t=step * cfg.dt)
        self.steps_run += 1
        return block_busy

    def table(self) -> TableData:
        """The owned rows as a table (``index`` + ``u`` columns)."""
        indices, values = [], []
        for _b, start, stop, interior in self.u.local_spans():
            indices.append(np.arange(start, stop, dtype=np.int64))
            values.append(np.asarray(interior, dtype=np.float64).copy())
        table = TableData(self.name)
        table.add_host_column(
            "index",
            np.concatenate(indices) if indices
            else np.zeros(0, dtype=np.int64),
        )
        table.add_host_column(
            "u",
            np.concatenate(values) if values
            else np.zeros(0, dtype=np.float64),
        )
        return table

    def run(self, bridge=None, mesh: str | None = None) -> dict:
        """Run every configured step; optionally publish through a bridge.

        With ``bridge`` set, each step's owned rows are published as a
        table under ``mesh`` (default: the workload name) through
        ``bridge.execute`` — the in-transit / service producer path.
        Returns this rank's summary (checksum, busy time, traffic).
        """
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
        """Collective: checksum plus this rank's cost/traffic counters."""
        c = self.coordinator
        return {
            "steps": self.steps_run,
            "checksum": self.u.reduce("sum"),
            "peak": self.u.reduce("max"),
            "busy_time": self.busy_time,
            "halo_bytes": self.exchanger.halo_bytes_moved,
            "handoff_bytes": self.exchanger.handoff_bytes_moved,
            "repartitions": c.repartitions if c is not None else 0,
            "blocks_moved": c.blocks_moved if c is not None else 0,
            "owners": tuple(self.u.partition.owners),
        }

    def close(self) -> None:
        """Collective: drain the exchanger's flows, free the shards."""
        if self._closed:
            return
        self.exchanger.close()
        self.u.close()
        self._closed = True


def stencil_producer(
    config: StencilConfig,
    transport: "TransportConfig | None" = None,
    adaptive: bool = False,
    interval: int = 4,
    mesh: str = "stencil",
):
    """A ``producer_main`` for ``run_in_transit`` / ``run_service``.

    Each producer rank advances the shared stencil and ships its owned
    rows through the bridge every step; the returned callable closes
    the workload (draining halo flows) before the bridge finalizes.
    When the bridge carries a control plane, repartition decisions are
    routed into the shared plane log (and onto any attached trace
    recorder) rather than a workload-local list.
    """

    def producer_main(sim_comm, bridge):
        workload = StencilWorkload(
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
