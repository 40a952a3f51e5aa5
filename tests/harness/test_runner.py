"""Tests for the paper-scale model and the small-scale stack runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.calibrate import PaperWorkload, SmallWorkload
from repro.harness.report import (
    format_fig2,
    format_fig3,
    format_table1,
    verify_findings,
)
from repro.harness.runner import RunResult, execute_small, simulate
from repro.harness.spec import InSituPlacement, RunSpec, table1_matrix
from repro.sensei.execution import ExecutionMethod

L, A = ExecutionMethod.LOCKSTEP, ExecutionMethod.ASYNCHRONOUS


@pytest.fixture(scope="module")
def paper_results():
    return [simulate(s) for s in table1_matrix()]


class TestSimulate:
    def test_all_paper_findings_hold(self, paper_results):
        findings = verify_findings(paper_results)
        assert all(findings.values()), findings

    def test_async_total_lower_every_placement(self, paper_results):
        by = {(r.spec.placement, r.spec.method): r for r in paper_results}
        for p in InSituPlacement:
            assert by[(p, A)].total_time < by[(p, L)].total_time

    def test_async_solver_slower_every_placement(self, paper_results):
        by = {(r.spec.placement, r.spec.method): r for r in paper_results}
        for p in InSituPlacement:
            assert by[(p, A)].solver_per_iter > by[(p, L)].solver_per_iter

    def test_async_apparent_insitu_tiny(self, paper_results):
        """Paper: '<10 ms across all time steps and all placements'."""
        for r in paper_results:
            if r.spec.method is A:
                assert r.insitu_apparent_per_iter < 0.010

    def test_lockstep_insitu_is_substantial(self, paper_results):
        for r in paper_results:
            if r.spec.method is L:
                assert r.insitu_apparent_per_iter > 0.050

    def test_reduced_concurrency_ordering(self, paper_results):
        """512-rank placements beat 384, which beats 256 (Section 4.4)."""
        by = {(r.spec.placement, r.spec.method): r for r in paper_results}
        for m in (L, A):
            assert (
                by[(InSituPlacement.SAME_DEVICE, m)].total_time
                < by[(InSituPlacement.DEDICATED_1, m)].total_time
                < by[(InSituPlacement.DEDICATED_2, m)].total_time
            )

    def test_host_vs_same_device_negligible(self, paper_results):
        by = {(r.spec.placement, r.spec.method): r for r in paper_results}
        h = by[(InSituPlacement.HOST, L)].total_time
        s = by[(InSituPlacement.SAME_DEVICE, L)].total_time
        assert abs(h - s) / max(h, s) < 0.05

    def test_total_scales_with_steps(self):
        spec = RunSpec(InSituPlacement.HOST, L)
        t100 = simulate(spec, PaperWorkload(steps=100)).total_time
        t200 = simulate(spec, PaperWorkload(steps=200)).total_time
        w = PaperWorkload()
        assert t200 - t100 == pytest.approx(t100 - w.init_time - w.finalize_time)

    def test_movement_by_placement(self, paper_results):
        by = {(r.spec.placement, r.spec.method): r for r in paper_results}
        assert by[(InSituPlacement.SAME_DEVICE, L)].data_movement_per_iter == 0.0
        assert by[(InSituPlacement.HOST, L)].data_movement_per_iter > 0.0
        # NVLink D2D beats PCIe D2H for the same bytes.
        assert (
            by[(InSituPlacement.DEDICATED_1, L)].data_movement_per_iter
            < by[(InSituPlacement.HOST, L)].data_movement_per_iter
        )

    def test_async_drain_tail_included(self):
        spec_l = RunSpec(InSituPlacement.HOST, L)
        spec_a = RunSpec(InSituPlacement.HOST, A)
        w = PaperWorkload(steps=0)
        # With zero steps, async still pays nothing extra (tail is the
        # last step's drain; no steps -> only fixed costs differ by 0).
        t_l = simulate(spec_l, w).total_time
        t_a = simulate(spec_a, w).total_time
        assert t_a >= t_l  # never cheaper without iterations

    def test_optimized_binning_strategy_projection(self):
        """What-if: with the Section 5 optimized kernel, the same-device
        placement's in situ cost drops below the host placement's."""
        w_atomic = PaperWorkload(binning_strategy="atomic")
        w_sorted = PaperWorkload(binning_strategy="sorted")
        same = RunSpec(InSituPlacement.SAME_DEVICE, L)
        host = RunSpec(InSituPlacement.HOST, L)
        atomic_same = simulate(same, w_atomic)
        sorted_same = simulate(same, w_sorted)
        assert sorted_same.insitu_apparent_per_iter < atomic_same.insitu_apparent_per_iter
        # The host placement uses the CPU kernel: unchanged by strategy.
        assert simulate(host, w_sorted).insitu_apparent_per_iter == pytest.approx(
            simulate(host, w_atomic).insitu_apparent_per_iter
        )
        # The findings still hold under the optimized kernel.
        results = [
            simulate(s, w_sorted) for s in table1_matrix()
        ]
        assert all(verify_findings(results).values())

    def test_model_generalizes_to_other_node_shapes(self):
        """The model is parametric in GPUs/node, not hardwired to 4."""
        spec8 = RunSpec(
            InSituPlacement.DEDICATED_2, L, nodes=64, gpus_per_node=8
        )
        assert spec8.ranks_per_node == 4
        assert spec8.total_ranks == 256
        r = simulate(spec8)
        assert r.total_time > 0
        # Same-node-count, 8-GPU machine beats the 4-GPU one (more
        # simulation GPUs per node -> fewer bodies per rank).
        spec4 = RunSpec(
            InSituPlacement.DEDICATED_2, L, nodes=64, gpus_per_node=4
        )
        assert r.total_time < simulate(spec4).total_time

    def test_result_metadata(self, paper_results):
        r = paper_results[0]
        assert r.mode == "model"
        assert r.n_bodies == 24_000_000
        assert r.iter_time == pytest.approx(
            r.solver_per_iter + r.insitu_apparent_per_iter
        )


class TestExecuteSmall:
    @pytest.fixture(scope="class")
    def small(self):
        return SmallWorkload(n_bodies=120, steps=2,
                             n_coordinate_systems=2, n_variables=2)

    @pytest.mark.parametrize("placement", list(InSituPlacement))
    @pytest.mark.parametrize("method", [L, A])
    def test_every_case_runs_the_real_stack(self, placement, method, small):
        spec = RunSpec(placement, method, nodes=1)
        r = execute_small(spec, small)
        assert r.mode == "stack"
        assert r.total_time > 0
        assert r.solver_per_iter > 0
        assert r.insitu_actual_per_iter > 0

    def test_async_actual_exceeds_lockstep_actual(self, small):
        """The hidden work still lands on the books.

        Asynchronous execution takes the analysis off the step's
        critical path, but the worker's busy time must cover at least
        the lockstep analysis cost it overlaps — plus the staged deep
        copies zero-copy lockstep never pays.  (At this smoke-test
        scale dispatch overhead legitimately exceeds the analysis busy
        time, so ``apparent < actual`` is not an invariant here: the
        copy lanes start D2H staging immediately instead of queueing
        it behind unrelated work on the shared host stream.)
        """
        lock = execute_small(RunSpec(InSituPlacement.HOST, L, nodes=1), small)
        asyn = execute_small(RunSpec(InSituPlacement.HOST, A, nodes=1), small)
        assert asyn.insitu_actual_per_iter > lock.insitu_actual_per_iter

    def test_lockstep_apparent_equals_actual(self, small):
        spec = RunSpec(InSituPlacement.SAME_DEVICE, L, nodes=1)
        r = execute_small(spec, small)
        assert r.insitu_apparent_per_iter == pytest.approx(
            r.insitu_actual_per_iter
        )


def _table1_makespans():
    small = SmallWorkload(n_bodies=256, steps=2,
                          n_coordinate_systems=2, n_variables=5)
    return [
        execute_small(case, small).total_time
        for case in table1_matrix(nodes=1)
    ]


class TestExecuteSmallDeterminism:
    def test_table1_makespans_repeat_bit_for_bit(self):
        """On the default 4-device node ranks share devices, so their
        alloc, free and stream charges land on common timelines in the
        order the ranks run — which the wait table's baton fixes."""
        first = _table1_makespans()
        assert _table1_makespans() == first
        assert _table1_makespans() == first

    def test_simulated_time_does_not_depend_on_force_values(self, monkeypatch):
        """The kernel's charge is a function of counts, so a kernel that
        returns zeros gives the same makespans bit for bit: any rewrite
        of the force arithmetic leaves simulated time alone."""
        real = _table1_makespans()
        monkeypatch.setattr(
            "repro.newton.solver.accelerations",
            lambda targets, *args, **kwargs: np.zeros((len(targets), 3)),
        )
        assert _table1_makespans() == real


class TestReport:
    def test_table1_contains_paper_rows(self):
        text = format_table1(table1_matrix())
        assert "lock step" in text and "asynchr." in text
        assert "512" in text and "384" in text and "256" in text
        assert "2 dedicated devices" in text

    def test_fig2_lists_all_cases(self, paper_results):
        text = format_fig2(paper_results)
        for p in InSituPlacement:
            assert p.value in text
        assert text.count("lockstep") == 4
        assert text.count("asynchr.") == 4

    def test_fig3_shows_stack_components(self, paper_results):
        text = format_fig3(paper_results)
        assert "solver=" in text and "insitu=" in text

    def test_verify_findings_detects_violations(self, paper_results):
        # Forge a result set where async is slower: findings must fail.
        forged = []
        for r in paper_results:
            if r.spec.method is A:
                forged.append(
                    RunResult(
                        spec=r.spec, steps=r.steps, n_bodies=r.n_bodies,
                        total_time=r.total_time * 10,
                        solver_per_iter=r.solver_per_iter,
                        insitu_apparent_per_iter=r.insitu_apparent_per_iter,
                        insitu_actual_per_iter=r.insitu_actual_per_iter,
                        data_movement_per_iter=r.data_movement_per_iter,
                        mode=r.mode,
                    )
                )
            else:
                forged.append(r)
        findings = verify_findings(forged)
        assert not findings["async_reduces_total_time_in_all_placements"]
