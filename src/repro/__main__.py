"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``table1`` — print the evaluation's run matrix (paper Table 1);
- ``study``  — replay all eight placement/execution cases at paper
  scale and print the Figure 2 / Figure 3 series plus the Section 4.4
  findings;
- ``run``    — execute one case through the real stack (Newton++ ->
  SENSEI -> data binning) on a single virtual node and print its
  timing decomposition;
- ``trace``  — like ``run``, additionally writing a Chrome-trace JSON
  of every resource timeline for Perfetto / chrome://tracing;
- ``lint``   — static location/stream safety analyzer from
  :mod:`repro.analysis` (the rule range is printed by
  ``python -m repro lint --help``), text, JSON, or SARIF reports;
- ``sanitize`` — execute an example script under the runtime
  sanitizer and report cross-location reads, use-after-free, and
  write-while-analyzing races.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.units import fmt_time


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="SENSEI heterogeneous-architecture extensions — "
        "reproduction driver",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 run matrix")

    study = sub.add_parser("study", help="paper-scale placement study (Figs 2-3)")
    study.add_argument("--steps", type=int, default=100,
                       help="iterations per run (default 100)")
    study.add_argument("--overhead-ms", type=float, default=5.0,
                       help="per-binning-op SENSEI overhead in ms (default 5)")

    for name, help_text in (
        ("run", "run one case through the real stack"),
        ("trace", "run one case and export a Chrome trace"),
    ):
        one = sub.add_parser(name, help=help_text)
        one.add_argument("--placement", default="same",
                         choices=["host", "same", "dedicated1", "dedicated2"])
        one.add_argument("--method", default="lockstep",
                         choices=["lockstep", "asynchronous"])
        one.add_argument("--bodies", type=int, default=1200)
        one.add_argument("--steps", type=int, default=3)
        if name == "trace":
            one.add_argument("--out", default="repro_trace.json")

    from repro.analysis.lint import add_lint_arguments, describe

    lint = sub.add_parser("lint", help=describe())
    add_lint_arguments(lint)

    sanitize = sub.add_parser(
        "sanitize", help="run an example under the runtime sanitizer"
    )
    sanitize.add_argument(
        "example",
        help="path to a python script, or the name of a file in examples/",
    )
    sanitize.add_argument(
        "--strict", action="store_true",
        help="raise SanitizerError at the first violation instead of "
             "recording and reporting",
    )
    return p


def _cmd_table1(args) -> int:
    from repro.harness.report import format_table1
    from repro.harness.spec import table1_matrix

    print(format_table1(table1_matrix()))
    return 0


def _cmd_study(args) -> int:
    from repro.harness.calibrate import PaperWorkload
    from repro.harness.report import format_fig2, format_fig3, verify_findings
    from repro.harness.runner import simulate
    from repro.harness.spec import table1_matrix
    from repro.units import ms

    w = dataclasses.replace(
        PaperWorkload(), steps=args.steps, insitu_op_overhead=ms(args.overhead_ms)
    )
    results = [simulate(s, w) for s in table1_matrix()]
    print(format_fig2(results))
    print(format_fig3(results))
    findings = verify_findings(results)
    for name, ok in findings.items():
        print(f"  [{'ok' if ok else 'VIOLATED'}] {name.replace('_', ' ')}")
    return 0 if all(findings.values()) else 1


_PLACEMENTS = {
    "host": "HOST",
    "same": "SAME_DEVICE",
    "dedicated1": "DEDICATED_1",
    "dedicated2": "DEDICATED_2",
}


def _run_one(args):
    from repro.harness.calibrate import SmallWorkload, scaled_node_spec
    from repro.harness.runner import execute_small
    from repro.harness.spec import InSituPlacement, RunSpec
    from repro.sensei.execution import ExecutionMethod

    spec = RunSpec(
        InSituPlacement[_PLACEMENTS[args.placement]],
        ExecutionMethod.parse(args.method),
        nodes=1,
    )
    w = SmallWorkload(n_bodies=args.bodies, steps=args.steps,
                      n_coordinate_systems=3, n_variables=3, bins=(32, 32))
    result = execute_small(spec, w, node_spec=scaled_node_spec())
    print(f"case: {spec.label}")
    print(f"  total run time      {fmt_time(result.total_time)}")
    print(f"  solver / iteration  {fmt_time(result.solver_per_iter)}")
    print(f"  in situ apparent    {fmt_time(result.insitu_apparent_per_iter)}")
    print(f"  in situ actual      {fmt_time(result.insitu_actual_per_iter)}")
    return result


def _cmd_run(args) -> int:
    _run_one(args)
    return 0


def _cmd_trace(args) -> int:
    from repro.hw.node import get_node
    from repro.hw.trace import write_chrome_trace

    _run_one(args)
    write_chrome_trace(args.out, get_node().timelines())
    print(f"wrote {args.out}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import lint_paths, render

    select = args.select.split(",") if args.select else None
    try:
        findings = lint_paths(
            args.paths,
            select=select,
            check_suppressions=args.check_suppressions,
            jobs=args.jobs,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro lint: error: {exc}")
        return 2
    print(render(findings, args.format))
    return 1 if findings else 0


def _resolve_example(target: str):
    """A script path as given, or a name resolved against examples/."""
    from pathlib import Path

    import repro

    p = Path(target)
    if p.is_file():
        return p
    name = target if target.endswith(".py") else f"{target}.py"
    candidate = Path(repro.__file__).resolve().parents[2] / "examples" / name
    if candidate.is_file():
        return candidate
    raise SystemExit(
        f"repro sanitize: no such script: {target!r} "
        f"(looked for {p} and {candidate})"
    )


def _cmd_sanitize(args) -> int:
    import runpy

    from repro.analysis.sanitizer import Sanitizer

    path = _resolve_example(args.example)
    san = Sanitizer(mode="raise" if args.strict else "record")
    print(f"sanitizing {path} (mode={san.mode})")
    with san:
        runpy.run_path(str(path), run_name="__main__")
    print(san.format_report())
    return 1 if san.violations else 0


_COMMANDS = {
    "table1": _cmd_table1,
    "study": _cmd_study,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
