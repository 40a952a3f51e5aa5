"""The four ablations of the reproduction's calibration choices: where
each crossover sits (EXPERIMENTS.md, "Ablations"; the exact series are
pinned by ``test_paper_golden.py``)."""

from __future__ import annotations

import math

from repro.harness.report import verify_findings
from repro.harness.runner import simulate
from repro.harness.spec import table1_matrix
from tests.harness import paper


def test_atomic_penalty_crossover():
    """Binning is "not an ideal algorithm for GPUs": without contention
    the GPU's bandwidth wins, at the calibrated 24x penalty it has lost
    that win (the host/same-device tie), and the sort-based kernel
    restores it at any penalty."""
    sweep = paper.atomic_sweep()
    ref = sweep.pop("crossover")
    assert sweep["penalty 1"]["gpu_atomic_s"] < ref["cpu_s"] < sweep["penalty 24"]["gpu_atomic_s"]
    assert 1.0 < ref["penalty"] <= 24.0
    assert ref["gpu_sorted_s"] < ref["cpu_s"]


def test_contention_break_even():
    """With no contention async saves about the lockstep in situ share;
    at the default factors (<= 1.3) it still wins everywhere, and each
    placement breaks even inside the sweep."""
    sweep = paper.contention_sweep()
    assert all(s > 0.05 for s in sweep["factor 1"].values())
    assert all(s > 0 for s in sweep["factor 1.3"].values())
    assert all(1.3 < f < math.inf for f in sweep["break-even"].values())


def test_findings_robust_to_overhead():
    """All five findings hold from thin to fat in situ, and the async
    saving grows with the in situ share."""
    for o in paper.OVERHEADS_MS:
        results = [simulate(s, paper.workload(o)) for s in table1_matrix()]
        assert all(verify_findings(results).values()), o
    rows = list(paper.overhead_sweep().values())
    savings = [r["async_saving"] for r in rows]
    assert all(a < b for a, b in zip(savings, savings[1:])), savings
    assert rows[0]["insitu_share"] < 0.05 < rows[-1]["insitu_share"]


def test_dedicated_gap_narrows_but_never_inverts():
    """Reserving GPUs costs the solver its concurrency at every in situ
    load; the dedicated GPUs absorb more useful work as the load grows,
    so the gap narrows."""
    rows = list(paper.dedicated_sweep().values())
    for t in rows:
        assert min(t[p] for p in paper.SHARED) < min(t[p] for p in paper.DEDICATED), t
    assert rows[-1]["ratio"] < rows[0]["ratio"]
