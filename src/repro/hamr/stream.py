"""The ``svtkStream`` abstraction over programming-model streams.

From the paper (Section 2): "svtkStream is a class that abstracts the
differences between PM streams.  It has automatic conversions to and
from PM native streams such that these can be used interchangeably.
The svtkStream is used for ordering operations and explicit
synchronization."

In the simulation a *native stream* is an opaque integer handle (what a
``cudaStream_t`` degrades to once you cannot dereference it) kept in the
current node's handle table so conversion round-trips preserve identity.
Each stream schedules on one :class:`~repro.hw.clock.Timeline` — a lane
of its device, reachable from ``get_node().timelines()``: operations
enqueued on a stream execute in order, and independent streams may
overlap — the same guarantees real PM streams give.
"""

from __future__ import annotations

import enum

from repro.hamr.allocator import HOST_DEVICE_ID, PMKind
from repro.hw.clock import EventCategory, SimClock, Timeline, TimedEvent
from repro.hw.node import get_node

__all__ = ["StreamMode", "Stream", "default_stream", "copy_stream"]


class StreamMode(enum.Enum):
    """Synchronization mode for HDA operations (``svtkStreamMode``).

    In ``ASYNC`` mode API calls return immediately while the operation
    is in progress, making it possible to overlap allocation, data
    movement, and computation; the user adds synchronization points as
    needed.  In ``SYNC`` mode all operations complete before the API
    call returns.
    """

    SYNC = "sync"
    ASYNC = "async"


def _loc(device_id: int) -> str:
    return "host" if device_id == HOST_DEVICE_ID else f"dev{device_id}"


class Stream:
    """An ordered queue of device (or host) operations."""

    def __init__(self, device_id: int = 0, name: str | None = None, pm: PMKind = PMKind.CUDA):
        self._attach(device_id, pm, name)

    def _attach(self, device_id: int, pm: PMKind, name: str | None = None,
                handle: int | None = None, timeline: Timeline | None = None) -> None:
        """Register with the current node: the handle (a fresh one unless
        given) in its table and — unless ``timeline`` is one of the
        device's two default lanes — a timeline of this stream's own as
        an extra lane, so the default lanes' cursors never move for it."""
        self.device_id = int(device_id)
        self.pm = pm
        node = get_node()
        resource = node.resource(self.device_id)
        with node.lock:
            if handle is None:
                # Past every handle held, adopted ones included: a
                # handle in use is never issued again.
                handle = 1 + max((h for _, h in node.native_streams), default=0)
            self._handle = int(handle)
            node.native_streams[(pm, self._handle)] = self
        self.name = name if name is not None else f"stream{handle}@{_loc(self.device_id)}"
        self.timeline = timeline
        if timeline is None:
            self.timeline = Timeline(self.name)
            with resource.lock:
                resource.lanes.append(self.timeline)

    # -- native-handle interchange --------------------------------------------
    def to_native(self, pm: PMKind | None = None) -> int:
        """The PM-native handle for this stream.

        Streams are raw scheduling contexts; the same handle is meaningful
        to every device PM on the node (as CUDA/HIP streams are on
        single-vendor nodes), so ``pm`` is accepted for interface parity
        and interop bookkeeping only.
        """
        if pm is not None and pm is not self.pm:
            node = get_node()
            with node.lock:
                node.native_streams[(pm, self._handle)] = self
        return self._handle

    @classmethod
    def from_native(cls, pm: PMKind, handle: int, device_id: int = 0) -> "Stream":
        """Wrap a PM-native stream handle (identity-preserving)."""
        node = get_node()
        with node.lock:
            existing = node.native_streams.get((pm, int(handle)))
        if existing is not None:
            return existing
        # An externally created native stream we have not seen: adopt it.
        s = cls.__new__(cls)
        s._attach(device_id, pm, f"native{handle}@{pm.value}", handle=handle)
        return s

    # -- scheduling -------------------------------------------------------------
    def enqueue(
        self,
        clock: SimClock,
        duration: float,
        name: str = "",
        category: EventCategory = EventCategory.OTHER,
        mode: StreamMode = StreamMode.ASYNC,
        after: float | None = None,
    ) -> TimedEvent:
        """Schedule an operation of ``duration`` on this stream.

        ``after`` expresses a cross-stream dependency: the operation may
        not start before that simulated time.  In ``SYNC`` mode the
        issuing clock blocks until completion.
        """
        issue = clock.now
        if after is not None and after > issue:
            issue = float(after)
        ev = self.timeline.schedule(issue, duration, name, category)
        if mode is StreamMode.SYNC:
            clock.wait_for(ev.end)
        return ev

    def synchronize(self, clock: SimClock) -> float:
        """Block the issuing clock until all enqueued work completes."""
        t = self.timeline.available_at
        clock.wait_for(t)
        self.timeline.schedule(clock.now, 0.0, name="synchronize", category=EventCategory.SYNC)
        return clock.now

    @property
    def available_at(self) -> float:
        return self.timeline.available_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, device={self.device_id}, pm={self.pm.value})"


def _lane_stream(device_id: int, pm: PMKind, lane: str, label: str) -> Stream:
    """The stream that schedules on ``resource.<lane>`` of the current
    node's ``device_id``, made on first use and kept on the resource:
    after that a lookup is one dict read, without the resource's lock."""
    resource = get_node().resource(device_id)
    s = resource.streams.get(lane)
    if s is None:
        with resource.lock:
            s = resource.streams.get(lane)
            if s is None:
                s = Stream.__new__(Stream)
                s._attach(
                    device_id, pm, f"{label}@{_loc(device_id)}",
                    timeline=getattr(resource, lane),
                )
                resource.streams[lane] = s
    return s


def default_stream(device_id: int = 0, pm: PMKind = PMKind.CUDA) -> Stream:
    """The current node's default stream for ``device_id``, like CUDA's
    stream 0; it schedules on ``resource.timeline``.

    This is what the paper's listings call ``svtkStream()`` — the stream
    used when the caller does not manage one explicitly.
    """
    return _lane_stream(device_id, pm, "timeline", "default")


def copy_stream(device_id: int = 0, pm: PMKind = PMKind.CUDA) -> Stream:
    """The per-device dedicated copy stream for ``device_id``; it
    schedules on ``resource.copy_timeline``.

    Staging copies issued without an explicit stream order here — the
    copy-engine lane — rather than on the device's default compute
    stream (an async memcpy must not serialize subsequent kernels) and
    never on the node-wide host stream (whose shared cursor would
    couple unrelated ranks' simulated clocks in wall arrival order).
    """
    return _lane_stream(device_id, pm, "copy_timeline", "copy")
