"""Coordination rounds driving the array repartition governor.

The :class:`ArrayCoordinator` is the measurement-and-collective half of
the load-balance loop: workloads charge per-block busy seconds into it
each step, and on coordination-due steps it folds three fields — block
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

from typing import TYPE_CHECKING, Mapping

from repro.control.plan import ControlConfig, ControlPlane
from repro.control.repartition import RepartitionGovernor
from repro.control.rounds import coordination_round

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.array.array import DistributedArray
    from repro.array.halo import HaloExchanger

__all__ = ["ArrayCoordinator"]


class ArrayCoordinator:
    """Runs the repartition loop for one array over one communicator.

    ``plane`` supplies the configuration (the ``repartition`` governor
    setting and the decision cadence, :meth:`ControlPlane.due
    <repro.control.plan.ControlPlane.due>`, that rounds run on), builds
    the governor and logs every decision; without one the coordinator
    runs on a private plane with the governor on and a round every
    ``interval`` steps.

    ``warmup`` schedules one cold-start round after that many steps —
    ahead of the regular cadence — so a badly skewed *initial* layout
    is corrected without waiting a full interval.
    """

    def __init__(
        self,
        array: "DistributedArray",
        exchanger: "HaloExchanger",
        plane: "ControlPlane | None" = None,
        interval: int = 4,
        warmup: int = 1,
    ):
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1: {warmup}")
        if plane is None:
            if interval < 1:
                raise ValueError(f"interval must be >= 1: {interval}")
            plane = ControlPlane(ControlConfig(
                interval=int(interval), repartition=True,
            ))
        self.array = array
        self.exchanger = exchanger
        self.plane = plane
        self.warmup = int(warmup)
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
        return step == self.warmup or self.plane.due(step)

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
