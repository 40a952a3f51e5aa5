"""Deeper profiling: utilization analysis and trace export.

The paper's Section 5: "In future work we plan to do deeper profiling
to understand this better as well as more profiling to better
understand the opportunities for improving performance when assigning
one or two dedicated devices for in situ processing."

Every simulated operation is already recorded as a
:class:`~repro.hw.clock.TimedEvent` on its resource's timeline; this
module turns those records into the analyses that profiling work needs:

- per-resource **utilization** over a window (busy fraction, split by
  event category);
- **gap analysis** — the idle intervals on a resource, which is where
  placement/overlap opportunities hide;
- **concurrency profile** — how many resources are busy at once;
- export to the **Chrome trace-event format** (``chrome://tracing`` /
  Perfetto compatible), so a run of the reproduction can be inspected
  with the same tooling real profiles use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.hw.clock import EventCategory, TimedEvent, Timeline

__all__ = [
    "ResourceUtilization",
    "utilization",
    "idle_gaps",
    "concurrency_profile",
    "chrome_trace",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class ResourceUtilization:
    """Busy-time summary of one resource over a window."""

    resource: str
    window: tuple[float, float]
    busy: float
    by_category: Mapping[str, float] = field(default_factory=dict)

    @property
    def span(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def fraction(self) -> float:
        """Busy fraction of the window (0 if the window is empty)."""
        return self.busy / self.span if self.span > 0 else 0.0


def _clip(ev: TimedEvent, t0: float, t1: float) -> float:
    """Busy duration of ``ev`` inside ``[t0, t1)``."""
    return max(0.0, min(ev.end, t1) - max(ev.start, t0))


def utilization(
    timeline: Timeline, t0: float = 0.0, t1: float | None = None
) -> ResourceUtilization:
    """Utilization of one resource over ``[t0, t1)``.

    ``t1`` defaults to the resource's last activity.  Zero-duration
    bookkeeping events (synchronize markers) contribute nothing.
    """
    events = timeline.events
    if t1 is None:
        t1 = max((e.end for e in events), default=t0)
    busy = 0.0
    by_cat: dict[str, float] = {}
    for ev in events:
        d = _clip(ev, t0, t1)
        if d <= 0:
            continue
        busy += d
        by_cat[ev.category.value] = by_cat.get(ev.category.value, 0.0) + d
    return ResourceUtilization(
        resource=timeline.name, window=(t0, t1), busy=busy, by_category=by_cat
    )


def idle_gaps(
    timeline: Timeline, t0: float = 0.0, t1: float | None = None,
    min_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """Idle intervals of a resource within ``[t0, t1)``.

    These are the windows an in situ placement could exploit — the
    "opportunities" the paper's future profiling work targets.
    """
    events = sorted(e for e in timeline.events if e.duration > 0)
    if t1 is None:
        t1 = max((e.end for e in events), default=t0)
    gaps: list[tuple[float, float]] = []
    cursor = t0
    for ev in events:
        if ev.start > cursor:
            lo, hi = cursor, min(ev.start, t1)
            if hi - lo > min_gap:
                gaps.append((lo, hi))
        cursor = max(cursor, ev.end)
        if cursor >= t1:
            break
    if cursor < t1 and t1 - cursor > min_gap:
        gaps.append((cursor, t1))
    return gaps


def concurrency_profile(
    timelines: Iterable[Timeline],
) -> list[tuple[float, int]]:
    """Step function of how many resources are busy over time.

    Returns ``(time, active_count)`` breakpoints sorted by time; each
    entry gives the count from that time until the next breakpoint.
    """
    deltas: list[tuple[float, int]] = []
    for tl in timelines:
        for ev in tl.events:
            if ev.duration <= 0:
                continue
            deltas.append((ev.start, +1))
            deltas.append((ev.end, -1))
    deltas.sort()
    profile: list[tuple[float, int]] = []
    active = 0
    for t, d in deltas:
        active += d
        if profile and profile[-1][0] == t:
            profile[-1] = (t, active)
        else:
            profile.append((t, active))
    return profile


def chrome_trace(
    timelines: Iterable[Timeline],
    time_scale: float = 1e6,
    extra_events: Iterable[Mapping] = (),
) -> list[dict]:
    """Events in the Chrome trace-event (JSON array) format.

    ``time_scale`` converts simulated seconds to trace microseconds.
    Each timeline becomes one "thread"; categories map to trace
    categories so Perfetto can color/filter them.  ``extra_events``
    are appended verbatim — the hook the transport plane uses to emit
    its counter events (retries, bytes, compression ratio) next to the
    timelines they explain.
    """
    out: list[dict] = []
    for tid, tl in enumerate(timelines):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": tl.name},
            }
        )
        for ev in tl.events:
            if ev.duration <= 0:
                continue
            out.append(
                {
                    "name": ev.name or ev.category.value,
                    "cat": ev.category.value,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": ev.start * time_scale,
                    "dur": ev.duration * time_scale,
                }
            )
    out.extend(dict(e) for e in extra_events)
    return out


def write_chrome_trace(
    path,
    timelines: Iterable[Timeline],
    extra_events: Iterable[Mapping] = (),
) -> None:
    """Write a ``chrome://tracing`` / Perfetto loadable JSON file."""
    with open(path, "w", encoding="ascii") as f:
        json.dump(chrome_trace(timelines, extra_events=extra_events), f)
