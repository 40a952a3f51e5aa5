"""The array plane's load-balance loop: the step driver every array
workload runs on, and the coordination rounds that re-cut its array.

:class:`ArrayWorkload` owns one halo-1 float64
:class:`~repro.array.array.DistributedArray`, the
:class:`~repro.array.halo.HaloExchanger` that refreshes its ghosts at
each step boundary, the step loop and its cost accounting, the
collective summary and the service producer; a subclass supplies only
its physics (:meth:`ArrayWorkload._advance`), its published table and
its checksums.  The stencil (:mod:`repro.array.stencil`) and the
particle run (:mod:`repro.workloads.particle`) are the two.

The :class:`ArrayCoordinator` is the measurement-and-collective half of
the loop: the workload charges per-block busy seconds into it each
step, and on coordination-due steps it folds three fields — block
costs, per-rank busy seconds, per-rank halo bytes — over the array's
communicator in one :func:`~repro.control.rounds.coordination_round`,
and one rank's :class:`~repro.control.repartition.RepartitionGovernor`
decides on the node-wide numbers for the group.  Every rank adopts
that governor's state, logs the same decision and, on a re-cut, calls
the array's collective :meth:`repartition` with the same owner map —
a coordinated step-boundary collective with the shard handoff charged
through the transport cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.array.array import DistributedArray
from repro.array.halo import HaloExchanger
from repro.array.partition import ArrayPartition
from repro.control.plan import ControlConfig, ControlPlane
from repro.control.repartition import RepartitionGovernor
from repro.control.rounds import coordination_round
from repro.errors import ArrayError
from repro.hamr.runtime import current_clock
from repro.hw.node import num_devices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.svtk.table import TableData
    from repro.transport.config import TransportConfig

__all__ = ["ArrayCoordinator", "ArrayWorkload"]

#: The step of the one cold-start round, ahead of the regular cadence,
#: so a badly skewed *initial* layout is corrected without waiting a
#: full interval.
WARMUP_STEP = 1


class ArrayCoordinator:
    """Runs the repartition loop for one array over one communicator.

    ``plane`` supplies the configuration (the ``repartition`` governor
    setting and the decision cadence, :meth:`ControlPlane.due
    <repro.control.plan.ControlPlane.due>`, that rounds run on), builds
    the governor and logs every decision; without one the coordinator
    runs on a private plane with the governor on and a round every
    ``interval`` steps.  Either way one extra round runs at
    :data:`WARMUP_STEP`.
    """

    def __init__(
        self,
        array: "DistributedArray",
        exchanger: "HaloExchanger",
        plane: "ControlPlane | None" = None,
        interval: int = 4,
    ):
        if plane is None:
            if interval < 1:
                raise ValueError(f"interval must be >= 1: {interval}")
            plane = ControlPlane(ControlConfig(
                interval=int(interval), repartition=True,
            ))
        self.array = array
        self.exchanger = exchanger
        self.plane = plane
        #: None when the plane has repartitioning switched off.
        self.governor = plane.governor(
            RepartitionGovernor, self,
            lambda: dict(actuator=lambda owners: self._recuts.append(owners)),
        )
        self._recuts: list[tuple[int, ...]] = []  # what the governor actuated
        self._block_busy: dict[int, float] = {}
        self._pending_step = 0
        self.rounds = 0
        self.repartitions = 0
        self.blocks_moved = 0
        self.bytes_moved = 0

    # -- measurement ------------------------------------------------------------
    def observe(
        self, step: int, block_busy: Mapping[int, float], t: float
    ) -> None:
        """Per-step tap: charge this step's per-block busy seconds and
        run the coordination round when one is due.

        ``t`` is the *simulation* time of the step — deterministic by
        construction — and becomes the decision timestamp, so decision
        logs are bit-identical across reruns even when wall-clock
        scheduling perturbs the simulated clocks.
        """
        for b in sorted(block_busy):
            self._block_busy[b] = self._block_busy.get(b, 0.0) + float(
                block_busy[b]
            )
        if self.due(step):
            self.coordinate(step, t)

    def due(self, step: int) -> bool:
        return step == WARMUP_STEP or self.plane.due(step)

    # -- the round --------------------------------------------------------------
    def coordinate(self, step: int, t: float) -> list:
        """One coordination round (collective over the array's comm).

        Returns the logged decisions — empty when the loop is idle
        (single rank, governor off, balanced load, or cooldown).
        """
        array = self.array
        comm = array.comm
        ranks = comm.size
        if ranks < 2 or self.governor is None:
            self._block_busy.clear()
            return []
        partition = array.partition
        rank = comm.rank
        costs = [0.0] * partition.nblocks
        for b in sorted(self._block_busy):
            if partition.owners[b] == rank:
                costs[b] = self._block_busy[b]
        busy, halo = [0.0] * ranks, [0.0] * ranks
        busy[rank] = float(sum(costs[b] for b in partition.blocks_of(rank)))
        halo[rank] = float(self.exchanger.planned_halo_bytes(array))
        gov = self.governor

        def decide(board):  # on one rank, for the whole group
            gov.observe(
                step,
                partition.owners,
                board["block_costs"].tolist(),
                board["rank_busy"].tolist(),
                board["halo_bytes"].tolist(),
            )
            self._recuts = recuts = []
            return recuts, gov.decide(step, t), (gov.gate._hold, gov._round)

        _board, (recuts, decisions, state) = coordination_round(comm, {
            "block_costs": costs, "rank_busy": busy, "halo_bytes": halo,
        }, decide)
        self.rounds += 1
        self._pending_step = step
        gov.gate._hold, gov._round = state
        self._block_busy.clear()
        for owners in recuts:
            self._apply(owners)
        return self.plane.log(decisions)

    def _apply(self, owners: tuple[int, ...]) -> None:
        """Governor actuator: the collective repartition itself.

        One rank's governor decided ``owners`` for the round and every
        rank replays it here on the same step — the handoff collective
        lines up by construction.
        """
        before = self.array.partition.owners
        self.bytes_moved += self.array.repartition(
            list(owners), self.exchanger, self._pending_step
        )
        self.repartitions += 1
        self.blocks_moved += sum(
            1 for a, b in zip(before, owners) if a != b
        )


class ArrayWorkload:
    """One rank's view of an array workload (construct SPMD-identically).

    ``config`` carries ``length``, ``steps``, ``dt``, ``partitioner``,
    ``block_rows`` and ``device_id``: rank r's shards land on device
    ``(device_id + r) mod n_devices`` (None = host), which keeps
    per-device pools and streams single-writer.  ``adaptive`` arms the
    repartition loop: the coordinator allreduces the per-block charges
    every ``interval`` steps and re-cuts the partition when the
    governor fires.  ``plane`` routes the decisions into a shared
    control-plane log (and supplies the governor's configuration when
    given).  ``name`` (default :attr:`default_name`) names the array,
    its halo flows and the published mesh.
    """

    #: The array's (and published mesh's) name when none is given.
    default_name = "array"

    def __init__(
        self,
        comm: "Communicator",
        config,
        transport: "TransportConfig | None" = None,
        plane: "ControlPlane | None" = None,
        adaptive: bool = False,
        interval: int = 4,
        name: str | None = None,
    ):
        name = self.default_name if name is None else str(name)
        self.comm = comm
        self.config = config
        self.name = name
        partition = ArrayPartition(
            config.length, comm.size,
            partitioner=config.partitioner,
            block_rows=config.block_rows,
        )
        device_id = config.device_id
        if device_id is not None:
            device_id = (int(device_id) + comm.rank) % max(1, num_devices())
        self.array = DistributedArray(
            comm, partition, dtype=np.float64, halo=1,
            device_id=device_id, name=name,
        )
        self.exchanger = HaloExchanger(comm, transport, name=name)
        self.coordinator: ArrayCoordinator | None = None
        if adaptive:
            self.coordinator = ArrayCoordinator(
                self.array, self.exchanger, plane=plane, interval=interval,
            )
        self.busy_time = 0.0
        self.steps_run = 0
        self._closed = False

    def _advance(self, step: int) -> Iterable[tuple[int, float]]:
        """The physics of one step, after the ghosts are fresh; returns
        (or yields) ``(block, charged seconds)`` per owned block, in
        block order."""
        raise NotImplementedError

    def _checksums(self) -> dict:
        """The summary's physics keys (collective when they reduce)."""
        raise NotImplementedError

    def table(self) -> "TableData":
        """This rank's share of the state, as the table it publishes."""
        raise NotImplementedError

    def step(self, step: int) -> dict[int, float]:
        """Refresh the ghosts, advance the physics and charge each
        block's seconds to the clock; returns the per-block charges."""
        if self._closed:
            raise ArrayError(f"{self.name} workload already closed")
        self.exchanger.exchange(self.array, step)
        clock = current_clock()
        block_busy: dict[int, float] = {}
        for b, cost in self._advance(step):
            clock.advance(cost)
            block_busy[b] = cost
            self.busy_time += cost
        if self.coordinator is not None:
            self.coordinator.observe(step, block_busy, t=step * self.config.dt)
        self.steps_run += 1
        return block_busy

    def run(self, bridge=None, mesh: str | None = None) -> dict:
        """Run every configured step; optionally publish through a bridge.

        With ``bridge`` set, each step's :meth:`table` is published
        under ``mesh`` (default: the workload name) through
        ``bridge.execute`` — the in-transit / service producer path.
        Returns this rank's :meth:`summary`.
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
        """Collective: checksums plus this rank's cost/traffic counters."""
        c = self.coordinator
        return {
            "steps": self.steps_run,
            **self._checksums(),
            "busy_time": self.busy_time,
            "halo_bytes": self.exchanger.halo_bytes_moved,
            "handoff_bytes": self.exchanger.handoff_bytes_moved,
            "repartitions": c.repartitions if c is not None else 0,
            "blocks_moved": c.blocks_moved if c is not None else 0,
            "owners": tuple(self.array.partition.owners),
        }

    def close(self) -> None:
        """Collective: drain the exchanger's flows, free the shards."""
        if self._closed:
            return
        self.exchanger.close()
        self.array.close()
        self._closed = True

    @classmethod
    def producer(
        cls,
        config,
        transport: "TransportConfig | None" = None,
        adaptive: bool = False,
        interval: int = 4,
        mesh: str | None = None,
    ):
        """A ``producer_main`` for ``run_in_transit`` / ``run_service``.

        Each producer rank runs the workload and ships its table
        through the bridge every step under ``mesh`` (default:
        :attr:`default_name`); the workload is closed (draining its
        halo flows) before the bridge finalizes.  When the bridge
        carries a control plane, repartition decisions go to the
        shared plane log (and onto any attached trace recorder).
        """
        mesh = cls.default_name if mesh is None else mesh

        def producer_main(sim_comm, bridge):
            workload = cls(
                sim_comm, config, transport=transport,
                plane=getattr(bridge, "control_plane", None),
                adaptive=adaptive, interval=interval, name=mesh,
            )
            try:
                return workload.run(bridge=bridge, mesh=mesh)
            finally:
                workload.close()

        return producer_main
