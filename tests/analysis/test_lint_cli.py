"""CLI-surface tests: derived rule span and the suppression audit."""

from __future__ import annotations

from repro.analysis.lint import (
    UNKNOWN_SUPPRESSION,
    UNUSED_SUPPRESSION,
    describe,
    lint_paths,
    main,
)
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
    "z = 3  # lint: disable=HL009\n"
    "w = 4  # lint: disable=HL010\n"
)


class TestSuppressionAudit:
    def _write(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(AUDIT_SOURCE)
        return p

    def test_stale_and_unknown_suppressions_reported(self, tmp_path):
        p = self._write(tmp_path)
        findings = [
            f for f in lint_paths([p], check_suppressions=True)
            if f.rule in (UNUSED_SUPPRESSION, UNKNOWN_SUPPRESSION)
        ]
        # HL009 and HL010 are retired: naming one is an unknown id.
        assert [(f.rule, f.line) for f in findings] == [
            (UNUSED_SUPPRESSION, 4),
            (UNKNOWN_SUPPRESSION, 5),
            (UNKNOWN_SUPPRESSION, 6),
            (UNKNOWN_SUPPRESSION, 7),
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
