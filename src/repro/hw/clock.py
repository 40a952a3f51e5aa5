"""Discrete-event simulated time.

The simulator uses the classical *resource timeline* model:

- A :class:`SimClock` tracks the current simulated time of an execution
  context (one MPI rank's CPU thread, typically).
- A :class:`Timeline` represents one serially ordered resource (a
  device's execution queue, a stream, a DMA engine).  Scheduling an
  operation of duration ``d`` issued at time ``t`` completes at
  ``max(t, timeline.available_at) + d`` and pushes ``available_at``
  forward.
- Synchronous operations advance the issuing clock to the completion
  time; asynchronous operations leave the clock alone and let the caller
  join later via ``clock.wait_for(event.end)`` — this is exactly the
  semantics of stream-ordered device work.

Every scheduled operation is recorded as a :class:`TimedEvent` so that
harness code can reconstruct per-phase breakdowns (solver vs in situ vs
data movement), mirroring the instrumentation used for the paper's
Figures 2 and 3.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Iterable, Iterator, NamedTuple

__all__ = ["EventCategory", "TimedEvent", "Timeline", "SimClock"]


class EventCategory(enum.Enum):
    """Coarse classification of simulated operations, for reporting."""

    COMPUTE = "compute"
    COPY = "copy"
    ALLOC = "alloc"
    FREE = "free"
    SYNC = "sync"
    COMM = "comm"
    IO = "io"
    OTHER = "other"


_event_ids = itertools.count()


class TimedEvent(NamedTuple):
    """One scheduled operation on a timeline.

    Ordering is by ``(start, end, seq)`` so sorted event lists read as a
    trace: ``seq`` is unique, so a comparison never reaches the later
    fields.  A named tuple, so an event is built in one step and its
    fields cannot be assigned.
    """

    start: float
    end: float
    seq: int
    name: str = ""
    category: EventCategory = EventCategory.OTHER
    resource: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """A serially ordered simulated resource.

    Thread safe: async in situ execution genuinely uses Python threads,
    and both the simulation thread and the analysis thread may schedule
    onto the same device timeline.
    """

    def __init__(self, name: str):
        self.name = str(name)
        self._available_at = 0.0
        self._events: list[TimedEvent] = []
        self._lock = threading.Lock()

    @property
    def available_at(self) -> float:
        """Simulated time at which this resource next becomes free."""
        return self._available_at

    def schedule(
        self,
        issue_time: float,
        duration: float,
        name: str = "",
        category: EventCategory = EventCategory.OTHER,
    ) -> TimedEvent:
        """Append an operation; returns the recorded event.

        ``duration`` must be non-negative.  The operation starts when
        both the issuer (``issue_time``) and the resource are ready.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        with self._lock:
            start = float(issue_time)
            if self._available_at > start:
                start = self._available_at
            end = start + float(duration)
            ev = TimedEvent(start, end, next(_event_ids), name, category, self.name)
            self._available_at = end
            self._events.append(ev)
            return ev

    def record(
        self,
        start: float,
        end: float,
        name: str = "",
        category: EventCategory = EventCategory.OTHER,
    ) -> TimedEvent:
        """Append an event *without* serializing against existing work.

        Used by the transport plane, whose flows time themselves on
        their ranks' clocks: frames of one flow may overlap, so its
        events must not queue behind each other.  ``available_at``
        still advances to ``end`` so cross-resource dependencies
        observe the activity.
        """
        if end < start:
            raise ValueError(f"event ends before it starts: {start}..{end}")
        with self._lock:
            ev = TimedEvent(
                float(start), float(end), next(_event_ids), name, category,
                self.name,
            )
            self._events.append(ev)
            if end > self._available_at:
                self._available_at = float(end)
            return ev

    @property
    def events(self) -> list[TimedEvent]:
        with self._lock:
            return list(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Timeline({self.name!r}, available_at={self.available_at:.6f}, "
            f"events={len(self._events)})"
        )


class SimClock:
    """Simulated time of one execution context.

    The clock only moves forward.  ``advance`` models local work;
    ``wait_for`` models blocking on an event completing elsewhere.
    """

    def __init__(self, start: float = 0.0, name: str = "clock"):
        self._now = float(start)
        self.name = str(name)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        # One attribute read is atomic; only the updates need the lock.
        return self._now

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` seconds of local work; returns new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt: {dt}")
        with self._lock:
            self._now += float(dt)
            return self._now

    def wait_for(self, t: float) -> float:
        """Block (in simulated time) until at least time ``t``."""
        with self._lock:
            if t > self._now:
                self._now = float(t)
            return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self.name!r}, now={self.now:.6f})"


def merge_events(timelines: Iterable[Timeline]) -> Iterator[TimedEvent]:
    """Yield the union of all events across ``timelines`` in trace order."""
    all_events: list[TimedEvent] = []
    for tl in timelines:
        all_events.extend(tl.events)
    return iter(sorted(all_events))
