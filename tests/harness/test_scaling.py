"""Tests for the scaling-study extension."""

from __future__ import annotations

import pytest

from repro.harness.scaling import (
    ScalingPoint,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)
from repro.harness.spec import InSituPlacement
from repro.sensei.execution import ExecutionMethod
from tests.harness import paper

NODES = [32, 64, 128, 256]
L = ExecutionMethod.LOCKSTEP


class TestStrongScaling:
    @pytest.fixture(scope="class")
    def series(self):
        return strong_scaling(InSituPlacement.SAME_DEVICE, L, NODES)

    def test_iteration_time_shrinks_with_machine(self, series):
        times = [p.iter_time for p in series]
        assert times == sorted(times, reverse=True)

    def test_efficiency_decays_from_one(self, series):
        eff = parallel_efficiency(series)
        assert eff[0] == pytest.approx(1.0)
        assert all(e1 >= e2 for e1, e2 in zip(eff, eff[1:]))
        assert eff[-1] < 1.0

    def test_insitu_share_grows_as_solver_shrinks(self, series):
        shares = [
            p.result.insitu_apparent_per_iter / p.result.iter_time
            for p in series
        ]
        assert shares == sorted(shares)

    def test_total_ranks_follow_placement(self, series):
        assert [p.total_ranks for p in series] == [n * 4 for n in NODES]


class TestWeakScaling:
    def test_solver_work_grows_quadratically(self):
        """Direct n-body weak scaling: per-rank work grows with N."""
        series = weak_scaling(InSituPlacement.SAME_DEVICE, L, [32, 128])
        assert series[1].result.solver_per_iter > 3.0 * series[0].result.solver_per_iter

    def test_bodies_scale_with_ranks(self):
        series = weak_scaling(
            InSituPlacement.HOST, L, [32, 64], bodies_per_rank=1000
        )
        assert series[0].result.n_bodies == 32 * 4 * 1000
        assert series[1].result.n_bodies == 64 * 4 * 1000


class TestAsyncAdvantageAcrossScale:
    def test_async_still_wins_at_other_machine_sizes(self):
        """The paper's core finding is not specific to 128 nodes."""
        for nodes in (32, 256):
            lock = strong_scaling(InSituPlacement.HOST, L, [nodes])[0]
            asyn = strong_scaling(
                InSituPlacement.HOST, ExecutionMethod.ASYNCHRONOUS, [nodes]
            )[0]
            assert asyn.result.total_time < lock.result.total_time

    def test_saving_grows_with_nodes_up_to_512(self):
        """As strong scaling shrinks the solver, the in situ share and
        with it the async saving grow; efficiency decays but stays
        meaningful."""
        rows = list(paper.scaling_sweep().values())
        savings = [r["async_saving"] for r in rows]
        assert 0.0 < savings[0] and all(a < b for a, b in zip(savings, savings[1:]))
        assert rows[0]["efficiency"] == 1.0
        assert 0.3 < rows[-1]["efficiency"] < 1.0


class TestHelpers:
    def test_empty_series(self):
        assert parallel_efficiency([]) == []
