"""CI wiring: the tree must stay lint-clean.

Runs the repro.analysis linter over ``src/``, ``examples/`` and
``benchmarks/`` as part of the tier-1 suite, so a new HL violation
fails pytest the same way a unit-test regression would.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import (
    UNKNOWN_SUPPRESSION,
    UNUSED_SUPPRESSION,
    lint_paths,
    main,
)
from repro.analysis.report import format_text

SRC = Path(repro.__file__).resolve().parent          # src/repro
REPO_ROOT = SRC.parents[1]                           # repo root


def _tree_paths():
    paths = [SRC]
    for extra in ("examples", "benchmarks"):
        p = REPO_ROOT / extra
        if p.is_dir():
            paths.append(p)
    return paths


_AUDIT_RULES = (UNUSED_SUPPRESSION, UNKNOWN_SUPPRESSION)


@pytest.fixture(scope="module")
def tree_lint():
    """One timed whole-tree lint + suppression audit, shared by the
    tree tests below (each used to re-lint the tree itself)."""
    start = time.perf_counter()
    findings = lint_paths(_tree_paths(), check_suppressions=True)
    return findings, time.perf_counter() - start


def test_tree_is_lint_clean(tree_lint):
    findings = [f for f in tree_lint[0] if f.rule not in _AUDIT_RULES]
    assert findings == [], "\n" + format_text(findings)


def test_tree_suppressions_are_all_live(tree_lint):
    """--check-suppressions finds no stale or unknown suppressions."""
    findings = [f for f in tree_lint[0] if f.rule in _AUDIT_RULES]
    assert findings == [], "\n" + format_text(findings)


def test_no_wall_clock_suppressions_in_the_tree():
    """HL012 (wall clock in the semantics) is held with zero
    suppressions: library code has no legitimate use to argue for."""
    offenders = [
        f"{path}:{n}"
        for root in _tree_paths()
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "lint: disable" in line and "HL012" in line
    ]
    assert offenders == []


def test_tree_lint_is_byte_identical_across_runs_and_jobs(tree_lint):
    """``jobs`` only fans out the parse pass, so: the parse pass yields
    the same files in the same order for every ``jobs``, and a second
    full run (serial parse) renders the same bytes as the shared one
    (default ``jobs``)."""
    from repro.analysis.engine import parse_files
    from repro.analysis.report import format_json

    parsed = [
        [(str(c.path), c.source) for c in parse_files(_tree_paths(), jobs)[0]]
        for jobs in (1, 4)
    ]
    assert parsed[0] == parsed[1]
    rerun = lint_paths(_tree_paths(), check_suppressions=True, jobs=1)
    assert format_json(rerun) == format_json(tree_lint[0])


def test_tree_lint_stays_within_runtime_budget(tree_lint):
    """Interprocedural analysis must not blow up whole-tree lint time.

    Budget: 2x the pre-interprocedural baseline (~1.3s on the dev
    container for the full call-graph build plus all rules), padded
    for slow CI runners.  A superlinear regression — e.g. summaries
    recomputed per call site instead of memoized — lands far above
    this; normal runs land far below it.
    """
    elapsed = tree_lint[1]
    assert elapsed < 8.0, f"whole-tree lint took {elapsed:.2f}s (budget 8s)"


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "bad.py"
    dirty.write_text("def f(b):\n    return b._data\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "HL001" in out


def test_cli_json_format(tmp_path, capsys):
    import json

    dirty = tmp_path / "bad.py"
    dirty.write_text("import threading\nt = threading.Thread()\n")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] >= 1
    assert payload["findings"][0]["rule"] == "HL005"


def test_cli_rejects_unknown_rule_id(tmp_path, capsys):
    p = tmp_path / "ok.py"
    p.write_text("x = 1\n")
    assert main([str(p), "--select", "HL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().out


def test_cli_rejects_missing_path(capsys):
    assert main(["/no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["lint", "sanitize"])
def test_repro_main_exposes_subcommands(module):
    from repro.__main__ import _build_parser

    parser = _build_parser()
    # Will raise SystemExit(2) if the subcommand is unknown.
    args = parser.parse_args([module] if module == "lint" else [module, "x"])
    assert args.command == module
