"""Entry point for the static analyzer: ``python -m repro lint``.

``lint_paths`` is the library surface (used by the CI test
``tests/test_lint_clean.py``), and its ``check_suppressions`` backs the
``--check-suppressions`` flag; :func:`main` is the CLI surface wired
into :mod:`repro.__main__`.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import (
    Finding,
    Rule,
    Severity,
    run_rules,
    run_rules_detailed,
)
from repro.analysis.report import format_json, format_text
from repro.analysis.rules import default_rules, rule_span

__all__ = ["lint_paths", "main", "describe"]

#: Rule ids the suppression audit itself reports under.
UNUSED_SUPPRESSION = "HLS01"
UNKNOWN_SUPPRESSION = "HLS02"


def describe() -> str:
    """One-line CLI description; the rule range is derived from
    :func:`default_rules` so it can never drift again."""
    return (
        "static location/stream safety analyzer "
        f"(rules {rule_span()})"
    )


def _select_rules(
    rules: Sequence[Rule] | None, select: Iterable[str] | None
) -> list[Rule]:
    active = list(rules) if rules is not None else default_rules()
    if select is not None:
        wanted = {s.strip().upper() for s in select}
        known = {r.id for r in active}
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        active = [r for r in active if r.id in wanted]
    return active


def _check_paths(paths: Iterable[Path | str]) -> list[Path | str]:
    paths = list(paths)
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"no such path(s): {', '.join(missing)}")
    return paths


def lint_paths(
    paths: Iterable[Path | str],
    rules: Sequence[Rule] | None = None,
    select: Iterable[str] | None = None,
    check_suppressions: bool = False,
    jobs: int | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths`` with the built-in rules.

    ``select`` restricts to the given rule ids (e.g. ``["HL001"]``);
    ``check_suppressions`` additionally audits ``# lint: disable=``
    comments: suppressions that silence nothing (:data:`HLS01`) and
    suppressions naming unknown rule ids (:data:`HLS02`).
    """
    active = _select_rules(rules, select)
    paths = _check_paths(paths)
    if not check_suppressions:
        return run_rules(paths, active, jobs=jobs)
    results, errors = run_rules_detailed(paths, active, jobs=jobs)
    findings = list(errors)
    for r in results:
        findings.extend(r.findings)
        findings.extend(_audit_file(r.ctx, r.raw, active))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _audit_file(ctx, raw: Sequence[Finding], rules: Sequence[Rule]) -> list[Finding]:
    """Findings for suppressions that no longer suppress anything."""
    known = {r.id for r in rules} | {"HL000"}
    by_line: dict[int, set[str]] = {}
    for f in raw:
        by_line.setdefault(f.line, set()).add(f.rule)
    out: list[Finding] = []
    for line in sorted(ctx.suppressions):
        ids = ctx.suppressions[line]
        unknown = sorted(i for i in ids if i != "ALL" and i not in known)
        for rule_id in unknown:
            out.append(
                Finding(
                    rule=UNKNOWN_SUPPRESSION,
                    severity=Severity.WARNING,
                    path=str(ctx.path),
                    line=line,
                    col=0,
                    message=f"suppression names unknown rule id "
                            f"{rule_id!r}",
                    hint="fix the id or delete the suppression",
                    details=(("suppressed", rule_id),),
                )
            )
        hits = by_line.get(line, set())
        used = bool(hits) if "ALL" in ids else bool(hits & ids)
        if not used and not unknown:
            listed = ", ".join(sorted(ids))
            out.append(
                Finding(
                    rule=UNUSED_SUPPRESSION,
                    severity=Severity.WARNING,
                    path=str(ctx.path),
                    line=line,
                    col=0,
                    message=f"suppression '{listed}' no longer "
                            "suppresses anything on this line",
                    hint="delete the stale '# lint: disable=' comment",
                    details=(("suppressed", listed),),
                )
            )
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro lint", description=describe())
    add_lint_arguments(p)
    return p


def add_lint_arguments(p: argparse.ArgumentParser) -> None:
    """The lint CLI surface, shared with ``repro.__main__``."""
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--check-suppressions",
        action="store_true",
        help="also report '# lint: disable=' comments that no longer "
             "suppress anything (unused or unknown rule ids)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel parse workers (default: auto)",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; exit 0 on a clean tree, 1 otherwise."""
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """``repro lint`` on parsed arguments; 2 on a usage error."""
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
    print(format_json(findings) if args.format == "json" else format_text(findings))
    return 1 if findings else 0
