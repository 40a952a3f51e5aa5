"""Text and JSON reporters for lint findings and sanitizer violations."""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.analysis.engine import Finding, Severity

__all__ = ["format_text", "format_json", "summarize"]


def summarize(findings: Sequence[Finding]) -> dict:
    """Counts by severity plus the set of affected files."""
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity is Severity.WARNING)
    return {
        "findings": len(findings),
        "errors": errors,
        "warnings": warnings,
        "files": len({f.path for f in findings}),
    }


def format_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one finding per block."""
    if not findings:
        return "clean: no findings"
    lines: list[str] = []
    for f in findings:
        lines.append(str(f))
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    s = summarize(findings)
    lines.append(
        f"{s['findings']} finding(s) ({s['errors']} error(s), "
        f"{s['warnings']} warning(s)) in {s['files']} file(s)"
    )
    return "\n".join(lines)


def format_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (shared format with the sanitizer)."""
    findings = list(findings)
    return json.dumps(
        {
            "findings": [f.to_dict() for f in findings],
            "summary": summarize(findings),
        },
        indent=2,
        sort_keys=True,
    )
