"""Per-tenant admission control for the in-transit service plane.

Two governors close the "heavy traffic" loop for
:func:`repro.service.run_service`, reusing the
:class:`~repro.control.governors.Decision` plumbing every governor
shares:

- :class:`QuotaGovernor` partitions each shared endpoint's credit
  budget across the pipelines (tenants) assigned to it: **weighted
  fair shares** over the tenants that shipped bytes since the last
  round, with AIMD-style dynamics — an active tenant ramps toward its
  fair share roughly halving the gap per round, an idle tenant's
  allocation decays multiplicatively until only a floor of
  ``min_credits`` is parked on it, and the reclaimed credits are
  immediately redistributed to the active tenants.
- :class:`ShardGovernor` watches per-endpoint offered load (demand
  spread over each pipeline's shard) and migrates the dominant tenant
  off an endpoint whose load skews past ``skew`` times the mean, onto
  the coldest endpoint outside that tenant's shard — at most one
  migration per round, with a cooldown so assignments settle between
  moves.

Neither governor measures anything itself: the service's coordination
round allreduces per-pipeline demand over the producer group (the same
epoch-checked collective the array coordinator's round uses), one
rank's pair decides on the node-wide vectors, and every rank adopts that pair's
state and applies its decisions on the same step.  Inputs are deterministic
byte counts — never wall-jittery retry or latency signals — so seeded
reruns produce bit-identical decision logs.
"""

from __future__ import annotations

from typing import Mapping

from repro.control.governors import Decision, Governor
from repro.control.policy import SkewGate

__all__ = ["QuotaGovernor", "ShardGovernor"]


class QuotaGovernor(Governor):
    """Weighted-fair credit budgets per (endpoint, pipeline) tenant pair.

    ``actuator(name, endpoint, credits)`` is called for every
    allocation; each producer's router translates that into
    ``set_window`` on whichever of its local senders carry the
    pipeline (ranks without a local sender simply no-op).
    """

    name = "quota"
    replayed = True

    def __init__(
        self,
        weights: Mapping[str, float],
        budget: int,
        actuator=None,
        min_credits: int = 1,
    ):
        super().__init__(actuator)
        if budget < 1:
            raise ValueError(f"budget must be >= 1 credit: {budget}")
        if min_credits < 1:
            raise ValueError(f"min_credits must be >= 1: {min_credits}")
        if min_credits > budget:
            raise ValueError(
                f"min_credits {min_credits} exceeds budget {budget}"
            )
        for tenant, w in sorted(weights.items()):
            if w <= 0:
                raise ValueError(f"weight for {tenant!r} must be > 0: {w}")
        self.weights = dict(sorted(weights.items()))
        self.budget = int(budget)
        self.min_credits = int(min_credits)
        #: Fractional credit state per (endpoint, pipeline); the
        #: actuated value is the floor, never below ``min_credits``.
        self._alloc: dict[tuple[int, str], float] = {}
        self._round: tuple | None = None

    def observe(
        self,
        step: int,
        demand: Mapping[str, int],
        active: Mapping[str, bool],
        shards: Mapping[str, tuple[int, ...]],
    ) -> None:
        """Node-wide (allreduced) signals for the next admission round.

        ``demand`` is raw payload bytes each pipeline shipped since the
        last round, ``active`` whether it shipped at all, ``shards``
        the current endpoint assignment.
        """
        self._round = (demand, active, shards)

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """One admission round: a decision per (endpoint, tenant) pair."""
        if self._round is None:
            return []
        demand, active, shards = self._round
        decisions: list[Decision] = []
        endpoints = sorted({e for n in sorted(shards) for e in shards[n]})
        for e in endpoints:
            tenants = [n for n in sorted(shards) if e in shards[n]]
            idle = [n for n in tenants if not active.get(n)]
            live = [n for n in tenants if active.get(n)]
            # Idle tenants decay multiplicatively toward the floor …
            for n in idle:
                cur = self._alloc.get((e, n), float(self.min_credits))
                self._alloc[(e, n)] = max(self.min_credits, cur / 2.0)
            parked = sum(self._alloc[(e, n)] for n in idle)
            # … and the freed budget goes back to the live tenants by
            # weight, each ramping about half the remaining gap per
            # round (an overshooting tenant snaps straight down).
            available = max(0.0, float(self.budget) - parked)
            wsum = sum(self.weights.get(n, 1.0) for n in live)
            for n in live:
                fair = available * self.weights.get(n, 1.0) / wsum
                cur = self._alloc.get((e, n), float(self.min_credits))
                if cur < fair:
                    cur = min(fair, cur + max(1.0, (fair - cur) / 2.0))
                else:
                    cur = fair
                self._alloc[(e, n)] = max(float(self.min_credits), cur)
            for n in tenants:
                credits = max(self.min_credits, int(self._alloc[(e, n)]))
                applied = self._actuate(n, e, credits)
                decisions.append(
                    self._decision(
                        step, t,
                        f"quota {n}@ep{e} -> {credits}",
                        (
                            f"{'active' if n in live else 'idle'} tenant "
                            f"among {len(tenants)} on endpoint {e}: "
                            f"weighted fair share of {self.budget} credits"
                        ),
                        applied,
                        pipeline=n,
                        endpoint=e,
                        credits=credits,
                        demand_bytes=int(demand.get(n, 0)),
                        active=bool(active.get(n)),
                        tenants=len(tenants),
                    )
                )
        return decisions


class ShardGovernor(Governor):
    """Migrates a pipeline off a skewed endpoint at step boundaries.

    ``actuator(name, new_shard)`` rewrites the shard map.  The
    decision is a pure function of allreduced inputs and the gate's
    cooldown, so the service bridge runs it on one rank and replays
    the call on every rank's replicated map.
    """

    name = "shard"
    switch = "quota"
    replayed = True

    def __init__(
        self,
        endpoints: int,
        actuator=None,
        skew: float = 1.5,
        cooldown: int = 2,
    ):
        super().__init__(actuator)
        if endpoints < 1:
            raise ValueError(f"endpoints must be >= 1: {endpoints}")
        self.endpoints = int(endpoints)
        self.gate = SkewGate(skew, cooldown)
        self._round: tuple | None = None

    @staticmethod
    def offered_loads(
        demand: Mapping[str, int],
        shards: Mapping[str, tuple[int, ...]],
        endpoints: int,
    ) -> list[float]:
        """Per-endpoint offered bytes: each pipeline's demand spread
        evenly over its shard."""
        loads = [0.0] * endpoints
        for n in sorted(shards):
            shard = shards[n]
            if not shard:
                continue
            share = demand.get(n, 0) / len(shard)
            for e in shard:
                loads[e] += share
        return loads

    def observe(
        self,
        step: int,
        demand: Mapping[str, int],
        shards: Mapping[str, tuple[int, ...]],
    ) -> None:
        """Node-wide demand and the current endpoint assignment."""
        self._round = (demand, shards)

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """One skew check; at most one migration."""
        if self.endpoints < 2 or self._round is None:
            return []
        if self.gate.cooling():
            return []
        demand, shards = self._round
        loads = self.offered_loads(demand, shards, self.endpoints)
        ratio = self.gate.ratio(loads)
        if not self.gate.tripped(ratio):
            return []
        hot = max(range(self.endpoints), key=lambda e: (loads[e], -e))
        # The dominant tenant on the hot endpoint, by offered share.
        tenants = [n for n in sorted(shards) if hot in shards[n]]
        movable = [
            n for n in tenants
            if any(e not in shards[n] for e in range(self.endpoints))
        ]
        if len(tenants) < 2 or not movable:
            return []  # nothing to separate
        dom = max(
            movable,
            key=lambda n: (demand.get(n, 0) / len(shards[n]), n),
        )
        share = demand.get(dom, 0) / len(shards[dom])
        candidates = [
            e for e in range(self.endpoints) if e not in shards[dom]
        ]
        cold = min(candidates, key=lambda e: (loads[e], e))
        if not self.gate.improves(loads[hot], loads[cold] + share):
            return []  # the move would not improve the skew
        new_shard = tuple(sorted(
            [e for e in shards[dom] if e != hot] + [cold]
        ))
        applied = self._actuate(dom, new_shard)
        if applied:
            self.gate.moved()
        return [self._decision(
            step, t,
            f"migrate {dom}: ep{hot} -> ep{cold}",
            (
                f"endpoint {hot} offered load {ratio:.2f}x the mean "
                f"across {self.endpoints} endpoints; moving its dominant "
                f"tenant to endpoint {cold}"
            ),
            applied,
            pipeline=dom,
            hot=hot,
            cold=cold,
            skew=round(ratio, 6),
            demand_bytes=int(demand.get(dom, 0)),
        )]
