"""A fresh substrate for every run of a determinism scenario.

A determinism check scrubs the process-global substrate state (node,
clock, active device), runs a seeded scenario, scrubs again, runs it
again and compares canonical logs (:func:`canonical_decision`).
:func:`record_zoo <repro.workloads.zoo.record_zoo>` scrubs the same way
before it records, so a golden trace is re-recorded under identical
conditions.
"""

from __future__ import annotations

from repro.hamr.runtime import set_active_device, set_current_clock
from repro.hw.clock import SimClock
from repro.hw.node import reset_node
from repro.trace.format import canonical_decision, canonical_float

__all__ = [
    "fresh_substrate",
    "canonical_decision",
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
