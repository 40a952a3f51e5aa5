"""Tests for the service-plane admission governors (quota + shard)."""

from __future__ import annotations

import pytest

from repro.control.plan import ControlConfig, ControlPlane
from repro.control.quota import QuotaGovernor, ShardGovernor


def admit(gov, step, demand, active, shards):
    """One admission round: feed the signals, run the loop."""
    gov.observe(step, demand, active, shards)
    return gov.decide(step)


def granted(grants, name, endpoint):
    """The credits last actuated for ``name`` on ``endpoint``, or None."""
    for n, e, credits in reversed(grants):
        if (n, e) == (name, endpoint):
            return credits
    return None


def rebalance(gov, step, demand, shards):
    """One skew check: feed the signals, run the loop."""
    gov.observe(step, demand, shards)
    return gov.decide(step)


class TestQuotaGovernor:
    def _gov(self, grants, **kw):
        kw.setdefault("weights", {"hot": 3.0, "bulk": 1.0})
        kw.setdefault("budget", 32)
        return QuotaGovernor(
            actuator=lambda n, e, c: grants.append((n, e, c)), **kw
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaGovernor({"a": 1.0}, budget=0)
        with pytest.raises(ValueError):
            QuotaGovernor({"a": 1.0}, budget=8, min_credits=0)
        with pytest.raises(ValueError):
            QuotaGovernor({"a": 1.0}, budget=8, min_credits=9)
        with pytest.raises(ValueError):
            QuotaGovernor({"a": -1.0}, budget=8)

    def test_converges_to_weighted_fair_shares(self):
        grants = []
        gov = self._gov(grants)
        shards = {"hot": (0,), "bulk": (0,)}
        active = {"hot": True, "bulk": True}
        demand = {"hot": 1000, "bulk": 1000}
        for step in range(12):
            admit(gov, step, demand, active, shards)
        # 3:1 weights over a 32-credit budget -> 24 / 8.
        assert granted(grants, "hot", 0) == 24
        assert granted(grants, "bulk", 0) == 8

    def test_ramp_halves_the_gap(self):
        grants = []
        gov = self._gov(grants)
        shards = {"hot": (0,), "bulk": (0,)}
        active = {"hot": True, "bulk": True}
        admit(gov, 0, {}, active, shards)
        first = granted(grants, "hot", 0)
        admit(gov, 1, {}, active, shards)
        second = granted(grants, "hot", 0)
        assert first < second < 24  # additive-increase toward fair

    def test_idle_tenant_decays_and_budget_is_reclaimed(self):
        grants = []
        gov = self._gov(grants)
        shards = {"hot": (0,), "bulk": (0,)}
        both = {"hot": True, "bulk": True}
        for step in range(12):
            admit(gov, step, {}, both, shards)
        assert granted(grants, "bulk", 0) == 8
        only_hot = {"hot": True, "bulk": False}
        for step in range(12, 24):
            admit(gov, step, {}, only_hot, shards)
        # The idle tenant multiplicatively decays to the floor and the
        # active one absorbs the reclaimed credits.
        assert granted(grants, "bulk", 0) == gov.min_credits
        assert granted(grants, "hot", 0) > 24

    def test_endpoints_budgeted_independently(self):
        grants = []
        gov = self._gov(grants)
        shards = {"hot": (0,), "bulk": (1,)}
        active = {"hot": True, "bulk": True}
        for step in range(12):
            admit(gov, step, {}, active, shards)
        # Alone on its endpoint, each tenant gets the whole budget.
        assert granted(grants, "hot", 0) == 32
        assert granted(grants, "bulk", 1) == 32

    def test_decisions_and_actuation(self):
        grants = []
        gov = self._gov(grants)
        decisions = admit(
            gov, 4, {"hot": 77, "bulk": 0}, {"hot": True, "bulk": False},
            {"hot": (0,), "bulk": (0,)},
        )
        assert len(decisions) == 2  # one per tenant on the endpoint
        assert all(d.governor == "quota" for d in decisions)
        assert all(d.applied for d in decisions)
        by_name = {d.args_dict["pipeline"]: d for d in decisions}
        assert by_name["hot"].args_dict["demand_bytes"] == 77
        assert by_name["bulk"].args_dict["active"] is False
        assert len(grants) == 2

    def test_disabled_is_silent(self):
        # ``quota`` is off by default: the plane builds no governor.
        plane = ControlPlane(ControlConfig())
        assert plane.governor(QuotaGovernor, object(), dict) is None
        assert plane.governors == [] and plane.decisions == []

    def test_credits_unknown_before_first_round(self):
        grants = []
        assert self._gov(grants).decide(0) == []
        assert granted(grants, "hot", 0) is None


class TestShardGovernor:
    def _gov(self, moves, **kw):
        kw.setdefault("endpoints", 2)
        kw.setdefault("cooldown", 2)
        return ShardGovernor(
            actuator=lambda n, s: moves.append((n, s)), **kw
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardGovernor(endpoints=0)
        with pytest.raises(ValueError):
            ShardGovernor(endpoints=2, skew=1.0)
        with pytest.raises(ValueError):
            ShardGovernor(endpoints=2, cooldown=-1)

    def test_migrates_dominant_tenant_off_hot_endpoint(self):
        moves = []
        gov = self._gov(moves)
        shards = {"a": (0,), "c": (0,), "b": (1,)}
        demand = {"a": 100, "c": 1000, "b": 0}
        (decision,) = rebalance(gov, 0, demand, shards)
        assert moves == [("c", (1,))]
        assert decision.applied
        assert decision.args_dict["pipeline"] == "c"
        assert (decision.args_dict["hot"], decision.args_dict["cold"]) == (0, 1)

    def test_cooldown_after_migration(self):
        moves = []
        gov = self._gov(moves, cooldown=2)
        shards = {"a": (0,), "c": (0,)}
        demand = {"a": 100, "c": 1000}
        rebalance(gov, 0, demand, shards)
        assert moves == [("c", (1,))]
        shards = {"a": (0,), "c": (1,)}
        # Two cooldown rounds pass with no decision at all.
        assert rebalance(gov, 1, demand, shards) == []
        assert rebalance(gov, 2, demand, shards) == []

    def test_balanced_load_is_left_alone(self):
        gov = self._gov([])
        shards = {"a": (0,), "b": (1,)}
        assert rebalance(gov, 0, {"a": 100, "b": 100}, shards) == []

    def test_sole_tenant_cannot_be_separated(self):
        gov = self._gov([])
        # Only one tenant on the hot endpoint: nothing to separate.
        shards = {"a": (0,)}
        assert rebalance(gov, 0, {"a": 1000}, shards) == []

    def test_no_move_that_would_not_improve(self):
        gov = self._gov([])
        # The dominant tenant carries ~all the load; moving it just
        # swaps which endpoint is hot.
        shards = {"a": (0,), "c": (0,)}
        demand = {"a": 0, "c": 10000}
        assert rebalance(gov, 0, demand, shards) == []

    def test_zero_demand_is_a_no_op(self):
        gov = self._gov([])
        assert rebalance(gov, 0, {}, {"a": (0,)}) == []

    def test_single_endpoint_never_migrates(self):
        gov = ShardGovernor(endpoints=1)
        assert rebalance(gov, 0, {"a": 9}, {"a": (0,)}) == []

    def test_offered_loads_spread_over_shard(self):
        loads = ShardGovernor.offered_loads(
            {"a": 100, "b": 60}, {"a": (0, 1), "b": (1,)}, 2
        )
        assert loads == [50.0, 110.0]
