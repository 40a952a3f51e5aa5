"""CLI-surface tests: derived rule span, the suppression audit, and
SARIF output."""

from __future__ import annotations

import json

from repro.analysis.lint import (
    UNKNOWN_SUPPRESSION,
    UNUSED_SUPPRESSION,
    audit_suppressions,
    describe,
    lint_paths,
    main,
)
from repro.analysis.report import format_sarif
from repro.analysis.rules import default_rules, rule_span


class TestDerivedHelp:
    def test_rule_span_is_derived_from_default_rules(self):
        ids = sorted(r.id for r in default_rules())
        assert rule_span() == f"{ids[0]}-{ids[-1]}"
        assert rule_span() == "HL001-HL012"

    def test_describe_mentions_the_span(self):
        assert rule_span() in describe()


AUDIT_SOURCE = (
    "def f(b):\n"
    "    return b.data  # lint: disable=HL001\n"
    "\n"
    "x = 1  # lint: disable=HL003\n"
    "y = 2  # lint: disable=HL999\n"
)


class TestSuppressionAudit:
    def _write(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(AUDIT_SOURCE)
        return p

    def test_stale_and_unknown_suppressions_reported(self, tmp_path):
        p = self._write(tmp_path)
        findings = audit_suppressions([p])
        assert [(f.rule, f.line) for f in findings] == [
            (UNUSED_SUPPRESSION, 4),
            (UNKNOWN_SUPPRESSION, 5),
        ]
        # The live suppression on line 2 is not reported.
        assert all(f.line != 2 for f in findings)

    def test_lint_paths_merges_audit_when_asked(self, tmp_path):
        p = self._write(tmp_path)
        assert lint_paths([p]) == []
        merged = lint_paths([p], check_suppressions=True)
        assert {f.rule for f in merged} == {
            UNUSED_SUPPRESSION, UNKNOWN_SUPPRESSION,
        }

    def test_cli_flag_fails_the_run(self, tmp_path, capsys):
        p = self._write(tmp_path)
        assert main([str(p)]) == 0
        capsys.readouterr()
        assert main([str(p), "--check-suppressions"]) == 1
        out = capsys.readouterr().out
        assert UNUSED_SUPPRESSION in out and UNKNOWN_SUPPRESSION in out


class TestSarif:
    def test_sarif_document_shape(self, tmp_path, capsys):
        dirty = tmp_path / "bad.py"
        dirty.write_text("def f(b):\n    return b._data\n")
        assert main([str(dirty), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r.id for r in default_rules()} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "HL001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1

    def test_empty_report_still_lists_rules(self):
        doc = json.loads(format_sarif([]))
        run = doc["runs"][0]
        assert run["results"] == []
        assert len(run["tool"]["driver"]["rules"]) == len(default_rules())

    def test_audit_findings_get_synthetic_descriptors(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text("x = 1  # lint: disable=HL003\n")
        findings = audit_suppressions([p])
        doc = json.loads(format_sarif(findings))
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert UNUSED_SUPPRESSION in rule_ids
        assert run["results"][0]["level"] == "warning"
