"""Shared harness for determinism suites and trace-gated tests.

Every determinism test has the same skeleton: scrub the process-global
substrate state (node, clock, active device), run a seeded scenario,
scrub again, run it again, and compare canonical logs.  Before :mod:`repro.trace` landed each suite hand-rolled that
scaffolding plus its own decision-canonicalization helper; this module
is the single copy they now share, and the golden-trace tests reuse it
to re-record fixtures under identical conditions.
"""

from __future__ import annotations

from repro.hamr.runtime import set_active_device, set_current_clock
from repro.hw.clock import SimClock
from repro.hw.node import reset_node
from repro.trace.format import canonical_decision, canonical_float

__all__ = [
    "fresh_substrate",
    "rerun",
    "canonical_decision",
    "canonical_decisions",
    "canonical_float",
]


def fresh_substrate(name: str = "determinism") -> None:
    """Scrub the process-global substrate state by hand.

    Equivalent to the per-test ``clean_substrate`` fixture, for code
    that runs a scenario *multiple times inside one test* (reruns,
    record-then-replay): a fresh node — which owns every stream, pool
    and timeline of a run — a fresh ``SimClock`` at zero, active
    device 0.
    """
    reset_node()
    set_current_clock(SimClock(name=name))
    set_active_device(0)


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


def canonical_decisions(decisions) -> list:
    """Canonicalize a decision log (see :func:`canonical_decision`)."""
    return [canonical_decision(d) for d in decisions]
