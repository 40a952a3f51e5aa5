"""Reporting: regenerate the paper's table and figure series as text.

``python -m repro table1`` and ``study`` print these; EXPERIMENTS.md
records them.  Bar "figures" are ASCII, inspectable in CI logs.
"""

from __future__ import annotations

from typing import Iterable

from repro.harness.runner import RunResult
from repro.harness.spec import InSituPlacement, RunSpec
from repro.sensei.execution import ExecutionMethod
from repro.units import fmt_time

__all__ = ["format_table1", "format_fig2", "format_fig3", "verify_findings"]

_PLACEMENT_ORDER = [
    InSituPlacement.HOST,
    InSituPlacement.SAME_DEVICE,
    InSituPlacement.DEDICATED_1,
    InSituPlacement.DEDICATED_2,
]


def format_table1(specs: Iterable[RunSpec]) -> str:
    """Table 1: the run matrix with rank/GPU accounting."""
    lines = [
        "Table 1: runs made to investigate in situ placement",
        f"{'Nodes':>5} | {'In-Situ Method':<14} | {'Ranks/node':>10} | "
        f"{'Total':>5} | In-Situ Location",
        "-" * 72,
    ]
    for s in specs:
        method = "lock step" if s.method is ExecutionMethod.LOCKSTEP else "asynchr."
        lines.append(
            f"{s.nodes:>5} | {method:<14} | {s.ranks_per_node:>10} | "
            f"{s.total_ranks:>5} | {s.placement.value}"
        )
    return "\n".join(lines)


def _bar(value: float, scale: float, width: int = 40) -> str:
    n = 0 if scale <= 0 else int(round(width * value / scale))
    return "#" * max(0, min(width, n))


def _by_case(
    results: Iterable[RunResult],
) -> dict[tuple[InSituPlacement, ExecutionMethod], RunResult]:
    return {(r.spec.placement, r.spec.method): r for r in results}


def format_fig2(results: Iterable[RunResult]) -> str:
    """Figure 2: total run time, lockstep vs asynchronous per placement."""
    cases = _by_case(results)
    scale = max(r.total_time for r in cases.values())
    lines = ["Figure 2: total run time for each in situ placement", ""]
    for p in _PLACEMENT_ORDER:
        lines.append(f"{p.value}:")
        for m, tag in (
            (ExecutionMethod.LOCKSTEP, "lockstep "),
            (ExecutionMethod.ASYNCHRONOUS, "asynchr. "),
        ):
            r = cases.get((p, m))
            if r is None:
                continue
            lines.append(
                f"  {tag} {fmt_time(r.total_time):>12} |{_bar(r.total_time, scale)}"
            )
        lines.append("")
    return "\n".join(lines)


def format_fig3(results: Iterable[RunResult]) -> str:
    """Figure 3: average per-iteration solver + in situ time (stacked)."""
    cases = _by_case(results)
    scale = max(r.iter_time for r in cases.values())
    lines = [
        "Figure 3: average time per iteration (solver + apparent in situ)",
        "          's' = solver, 'i' = in situ (apparent)",
        "",
    ]
    for p in _PLACEMENT_ORDER:
        lines.append(f"{p.value}:")
        for m, tag in (
            (ExecutionMethod.LOCKSTEP, "lockstep "),
            (ExecutionMethod.ASYNCHRONOUS, "asynchr. "),
        ):
            r = cases.get((p, m))
            if r is None:
                continue
            width = 40
            s_len = int(round(width * r.solver_per_iter / scale)) if scale else 0
            i_len = int(round(width * r.insitu_apparent_per_iter / scale)) if scale else 0
            lines.append(
                f"  {tag} solver={fmt_time(r.solver_per_iter):>12} "
                f"insitu={fmt_time(r.insitu_apparent_per_iter):>12} "
                f"(actual {fmt_time(r.insitu_actual_per_iter):>12}) "
                f"|{'s' * s_len}{'i' * i_len}"
            )
        lines.append("")
    return "\n".join(lines)


def verify_findings(results: Iterable[RunResult]) -> dict[str, bool]:
    """Check the paper's five qualitative Section 4.4 findings.

    Returns a mapping of finding name to whether the given results
    preserve it; ``study`` prints it and tier-1 asserts on it.
    """
    cases = _by_case(results)

    def total(p, m):
        return cases[(p, m)].total_time

    def solver(p, m):
        return cases[(p, m)].solver_per_iter

    L, A = ExecutionMethod.LOCKSTEP, ExecutionMethod.ASYNCHRONOUS

    findings: dict[str, bool] = {}
    findings["async_reduces_total_time_in_all_placements"] = all(
        total(p, A) < total(p, L) for p in _PLACEMENT_ORDER
    )
    findings["async_apparent_insitu_is_small"] = all(
        cases[(p, A)].insitu_apparent_per_iter
        < 0.25 * cases[(p, L)].insitu_apparent_per_iter
        for p in _PLACEMENT_ORDER
    )
    findings["async_slows_solver_in_all_placements"] = all(
        solver(p, A) > solver(p, L) for p in _PLACEMENT_ORDER
    )
    findings["dedicated_placements_are_slower"] = all(
        total(InSituPlacement.DEDICATED_1, m) > total(InSituPlacement.HOST, m)
        and total(InSituPlacement.DEDICATED_2, m)
        > total(InSituPlacement.DEDICATED_1, m)
        for m in (L, A)
    )
    host_l = total(InSituPlacement.HOST, L)
    same_l = total(InSituPlacement.SAME_DEVICE, L)
    findings["host_and_same_device_nearly_tied"] = (
        abs(host_l - same_l) / max(host_l, same_l) < 0.10
    )
    return findings
