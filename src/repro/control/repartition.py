"""The repartition governor: re-cutting a distributed array under skew.

Closes the load-balance loop for :mod:`repro.array`: when per-rank
busy time (or per-rank halo traffic) skews past a threshold, the
partition is re-cut by :func:`chain_owners` using measured per-block
costs as weights — contiguous spans, so the new layout keeps halo
surfaces minimal while evening out the summed cost per rank.

Like the service plane's quota/shard governors, this governor measures
nothing itself: :class:`repro.array.coordinate.ArrayCoordinator`
allreduces per-block busy seconds and per-rank halo bytes over the
array's communicator (the epoch-checked collective, so a rank that
skipped a round fails loudly instead of diverging), and one rank's
governor decides on the node-wide vectors for the group.  Every rank
adopts its state and replays its new owner map, so actuation is
every rank calling the same collective repartition on the same
step.  Inputs are simulated-clock charges and plan-derived byte
counts, never wall-jittery signals: seeded reruns produce bit-identical
decision logs.
"""

from __future__ import annotations

from typing import Sequence

from repro.control.governors import Decision, Governor
from repro.control.policy import SkewGate

__all__ = ["RepartitionGovernor", "chain_owners"]


def chain_owners(weights: Sequence[float], n: int) -> list[int]:
    """Contiguous spans with near-equal weight sums (chains-on-chains).

    The classic 1-D load-balanced decomposition of ``len(weights)``
    items over ``n`` ranks: walk the items in index order and cut
    where the weight prefix sum crosses each rank's fair share, keeping
    every span non-empty.  Skewed weights shift the cuts so each rank's
    *summed* weight evens out while spatial adjacency — and therefore
    minimal halo surface for stencil-like consumers — is preserved.
    Uniform weights give the block layout
    (:func:`~repro.mpi.partition.block_owners`) only when ``n`` divides
    the item count: otherwise the fair-share cuts round differently
    (3 items over 2 ranks are ``[0, 1, 1]`` here, ``[0, 0, 1]`` in
    blocks).  The weights must be non-negative with a positive sum.
    """
    m = len(weights)
    if n < 1 or n > m:
        raise ValueError(f"cannot cut {m} items over {n} ranks")
    total = float(sum(weights))
    if any(w < 0 for w in weights) or not total > 0.0:
        raise ValueError("weights must be non-negative with a positive sum")
    out = [0] * m
    acc = 0.0
    e = 0
    for p in range(m):
        if e < n - 1 and p > 0 and out[p - 1] == e:
            # Forced cut: the items left must still cover one rank
            # each.  Fair-share cut: the running sum (with half of this
            # item's weight, so a heavy item lands on whichever side it
            # overlaps most) crossed this rank's boundary.
            forced = (m - p) == (n - e)
            crossed = acc + float(weights[p]) / 2.0 >= (e + 1) * total / n
            if forced or crossed:
                e += 1
        out[p] = e
        acc += float(weights[p])
    return out


class RepartitionGovernor(Governor):
    """Re-cuts block ownership when busy-time or halo-byte skew crosses
    the threshold.

    ``actuator(owners)`` receives the new owner tuple; the coordinator
    records it and every rank replays it into the array's collective
    repartition, so the shard handoff is itself coordinated.
    A cooldown of ``cooldown`` rounds follows every applied re-cut so
    the new layout's costs are observed before it can be judged again.
    """

    name = "repartition"

    def __init__(
        self,
        actuator=None,
        skew: float = 1.25,
        cooldown: int = 2,
    ):
        super().__init__(actuator)
        self.gate = SkewGate(skew, cooldown)
        self._round: tuple | None = None

    @staticmethod
    def _rank_loads(
        owners: Sequence[int], costs: Sequence[float], ranks: int
    ) -> list[float]:
        loads = [0.0] * ranks
        for b, r in enumerate(owners):
            loads[r] += float(costs[b])
        return loads

    def observe(
        self,
        step: int,
        owners: Sequence[int],
        block_costs: Sequence[float],
        rank_busy: Sequence[float],
        halo_bytes: Sequence[float],
    ) -> None:
        """Node-wide (allreduced) vectors for the next skew check.

        ``owners`` is the current block layout, ``block_costs`` busy
        seconds charged per block since the last round, ``rank_busy``
        the per-rank sums, ``halo_bytes`` the plan-derived per-rank
        halo traffic.
        """
        self._round = (owners, block_costs, rank_busy, halo_bytes)

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """One skew check; at most one re-cut (none while cooling down,
        balanced, or when it would not improve the worst rank)."""
        if self._round is None:
            return []
        owners, block_costs, rank_busy, halo_bytes = self._round
        if len(rank_busy) < 2 or self.gate.cooling():
            return []
        busy_skew = self.gate.ratio(rank_busy)
        halo_skew = self.gate.ratio(halo_bytes)
        if not self.gate.tripped(busy_skew, halo_skew):
            return []
        total_cost = float(sum(block_costs))
        if total_cost <= 0.0:
            return []
        ranks = len(rank_busy)
        new_owners = tuple(
            chain_owners([float(c) for c in block_costs], ranks)
        )
        moved = sum(1 for a, b in zip(owners, new_owners) if a != b)
        if moved == 0:
            return []
        cur = self._rank_loads(owners, block_costs, ranks)
        new = self._rank_loads(new_owners, block_costs, ranks)
        if not self.gate.improves(max(cur), max(new)):
            return []  # the re-cut would not improve the worst rank
        applied = self._actuate(new_owners)
        if applied:
            self.gate.moved()
        return [self._decision(
            step, t,
            f"repartition: move {moved} of {len(block_costs)} blocks",
            (
                f"rank busy skew {busy_skew:.2f}x, halo skew "
                f"{halo_skew:.2f}x mean across {ranks} ranks; chain re-cut "
                f"drops the worst rank from {max(cur):.3g}s to "
                f"{max(new):.3g}s of charged cost"
            ),
            applied,
            moved=moved,
            blocks=len(block_costs),
            ranks=ranks,
            busy_skew=round(busy_skew, 6),
            halo_skew=round(halo_skew, 6),
            worst_before=round(max(cur), 9),
            worst_after=round(max(new), 9),
        )]
