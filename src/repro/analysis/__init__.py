"""Location/stream safety tooling for the heterogeneous substrate.

The rest of the package *permits* the paper's correctness hazards
mechanically — dereferencing a buffer from the wrong side of the bus,
forgetting to synchronize an asynchronous stream, mutating data an
asynchronous in situ thread still reads.  This package makes those
hazards *detectable*:

- :mod:`repro.analysis.lint` — an AST-based static analyzer with a
  small rule engine (:mod:`repro.analysis.engine`) and file-local rules
  targeting this codebase's idioms (:mod:`repro.analysis.rules`,
  HL001-HL008, HL011 and HL012);
- :mod:`repro.analysis.sanitizer` — an opt-in runtime sanitizer that
  instruments :class:`~repro.hamr.buffer.Buffer` and
  :class:`~repro.sensei.execution.AsyncRunner` to catch cross-location
  reads, use-after-free of wrapped memory, and write-while-analyzing
  races in asynchronous execution.

Both are exposed on the command line::

    python -m repro lint src examples benchmarks
    python -m repro sanitize examples/quickstart.py

Findings, sanitizer violations, and the structured ``details`` dicts on
:class:`~repro.errors.StreamError` / :class:`~repro.errors.AllocationError`
share one report format (keys ``buffer``, ``device_id``, ``stream_mode``).
"""

from __future__ import annotations

from repro.analysis.engine import Finding, Rule, Severity
from repro.analysis.lint import lint_paths
from repro.analysis.rules import DEFAULT_RULES, default_rules
from repro.analysis.sanitizer import Sanitizer, Violation

__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "lint_paths",
    "DEFAULT_RULES",
    "default_rules",
    "Sanitizer",
    "Violation",
]
