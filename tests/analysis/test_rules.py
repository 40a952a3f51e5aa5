"""Rule-engine tests: one fixture file per built-in rule.

Each fixture marks violating lines with a trailing ``# expect: HLxxx``
comment and demonstrates a same-line ``# lint: disable=HLxxx``
suppression.  The harness asserts the linter reports exactly the
expected (rule, line) pairs — so rule ids, line numbers, and the
suppression machinery are all covered per rule.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.engine import Severity, parse_suppressions
from repro.analysis.lint import lint_paths
from repro.analysis.rules import DEFAULT_RULES

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*(HL\d{3})")

ALL_RULE_IDS = [cls.id for cls in DEFAULT_RULES]


def expected_findings(path: Path) -> list[tuple[str, int]]:
    """(rule, line) pairs declared by ``# expect:`` markers."""
    out = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m:
            out.append((m.group(1), lineno))
    return out


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_fixture_matches_expectations(self, rule_id):
        """Each rule reports its fixture's marked lines, nothing more."""
        path = FIXTURES / f"{rule_id.lower()}.py"
        expected = [e for e in expected_findings(path) if e[0] == rule_id]
        assert expected, f"fixture {path.name} declares no expectations"
        findings = lint_paths([path], select=[rule_id])
        got = [(f.rule, f.line) for f in findings]
        assert got == expected

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_suppression_line_present_and_honored(self, rule_id):
        """Every fixture demonstrates # lint: disable=HLxxx working."""
        path = FIXTURES / f"{rule_id.lower()}.py"
        suppressions = parse_suppressions(path.read_text())
        assert any(rule_id in ids for ids in suppressions.values()), (
            f"fixture {path.name} has no # lint: disable={rule_id} line"
        )
        suppressed_lines = {
            line for line, ids in suppressions.items() if rule_id in ids
        }
        findings = lint_paths([path], select=[rule_id])
        assert not {f.line for f in findings} & suppressed_lines

    def test_whole_fixture_dir_is_rule_tagged(self):
        """Running all rules over all fixtures exits non-zero-style."""
        findings = lint_paths([FIXTURES])
        assert findings
        assert {f.rule for f in findings} == set(ALL_RULE_IDS)

    def test_hl011_near_misses_stay_clean(self):
        """Registry-derived tags, re-exports, signature defaults and
        look-alike names are not literal tags."""
        assert lint_paths([FIXTURES / "hl011_near_miss.py"]) == []

    def test_hl012_near_misses_stay_clean(self):
        """Simulated-clock ``wait_for``, blocking through the
        communicator, untimed waits, a seeded ``random.Random(seed)`` —
        and ``time.perf_counter`` in a benchmark file, which
        legitimately times itself."""
        assert lint_paths([FIXTURES / "hl012_near_miss.py"]) == []
        assert lint_paths([FIXTURES / "benchmarks"]) == []


class TestFindingShape:
    def test_finding_fields(self):
        f = lint_paths([FIXTURES / "hl001.py"], select=["HL001"])[0]
        assert f.rule == "HL001"
        assert f.severity is Severity.ERROR
        assert f.line > 0 and f.col >= 0
        assert f.hint
        d = f.to_dict()
        assert d["severity"] == "error"
        assert isinstance(d["details"], dict)

    def test_severities(self):
        sev = {cls.id: cls.severity for cls in DEFAULT_RULES}
        assert sev["HL001"] is Severity.ERROR
        assert sev["HL003"] is Severity.WARNING
        assert sev["HL004"] is Severity.WARNING


class TestEngineMechanics:
    def test_disable_all(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text("def f(b):\n    return b.data  # lint: disable=all\n")
        assert lint_paths([p]) == []

    def test_multi_id_suppression(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(
            "import threading\n"
            "def f(b):\n"
            "    t = threading.Thread(target=b)  # lint: disable=HL001,HL005\n"
        )
        assert lint_paths([p]) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        findings = lint_paths([p])
        assert len(findings) == 1
        assert findings[0].rule == "HL000"

    def test_results_are_stably_ordered(self):
        a = lint_paths([FIXTURES])
        b = lint_paths([FIXTURES])
        assert [(f.path, f.line, f.rule) for f in a] == [
            (f.path, f.line, f.rule) for f in b
        ]

    def test_select_filters_rules(self):
        findings = lint_paths([FIXTURES], select=["HL005"])
        assert findings and all(f.rule == "HL005" for f in findings)


class TestReporters:
    def test_text_report(self):
        from repro.analysis.report import format_text

        findings = lint_paths([FIXTURES / "hl001.py"], select=["HL001"])
        text = format_text(findings)
        assert "HL001" in text and "hint:" in text and "error" in text
        assert format_text([]) == "clean: no findings"

    def test_json_report(self):
        import json

        from repro.analysis.report import format_json

        findings = lint_paths([FIXTURES / "hl006.py"], select=["HL006"])
        payload = json.loads(format_json(findings))
        assert payload["summary"]["findings"] == len(findings)
        assert all(f["rule"] == "HL006" for f in payload["findings"])
