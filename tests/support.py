"""Helpers the test suites share.

They live here, not in ``src/repro``, because only tests call them.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

from repro.hw.spec import DeviceSpec, NodeSpec
from repro.trace.format import Trace, canonical_decision
from repro.trace.harness import fresh_substrate
from repro.units import GiB

#: The four structurally different workloads the zoo guarantees.
ZOO_WORKLOADS = ("newton", "stencil", "particle", "request-stream")

#: The scenarios whose traces are pinned under ``tests/golden/``.
GOLDEN_SCENARIOS = ("codec", "flow", "repartition", "particle")

#: Every scenario the zoo records, each named once.
ALL_SCENARIOS = ZOO_WORKLOADS + tuple(
    name for name in GOLDEN_SCENARIOS if name not in ZOO_WORKLOADS
)


def small_node_spec(num_devices: int = 4, mem_capacity: int = GiB) -> NodeSpec:
    """A small-capacity node spec for tests that exercise OOM paths."""
    dev = replace(DeviceSpec(), mem_capacity=int(mem_capacity))
    return NodeSpec(device=dev, num_devices=num_devices)


def rerun(scenario, times: int = 2, name: str = "determinism") -> list:
    """Run ``scenario()`` ``times`` times, each from a fresh substrate.

    Returns the per-run results; determinism suites assert the
    canonical forms are equal across entries.
    """
    out = []
    for _ in range(times):
        fresh_substrate(name)
        out.append(scenario())
    return out


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc; return ``(its result, peak bytes)``.

    The peak counts only what the call allocates (memory already held
    when it starts is not traced), so a bound on it is a bound on the
    call's own residency.
    """
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def canonical_decisions(decisions) -> list:
    """Canonicalize a decision log (see :func:`canonical_decision`)."""
    return [canonical_decision(d) for d in decisions]


def diff_traces(a: Trace, b: Trace, limit: int = 20) -> list[str]:
    """Human-readable record-level differences between two traces.

    Empty when the traces are byte-identical; otherwise up to ``limit``
    lines naming the first diverging records — the error message the
    golden gate prints when a trace drifts.
    """
    lines_a = a.to_jsonl().splitlines()
    lines_b = b.to_jsonl().splitlines()
    out = []
    for i in range(max(len(lines_a), len(lines_b))):
        if len(out) >= limit:
            out.append("... (diff truncated)")
            break
        ra = lines_a[i] if i < len(lines_a) else "<missing>"
        rb = lines_b[i] if i < len(lines_b) else "<missing>"
        if ra != rb:
            out.append(f"record {i}: {ra!r} != {rb!r}")
    return out
