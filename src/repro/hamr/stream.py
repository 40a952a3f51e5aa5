"""The ``svtkStream`` abstraction over programming-model streams.

From the paper (Section 2): "svtkStream is a class that abstracts the
differences between PM streams.  It has automatic conversions to and
from PM native streams such that these can be used interchangeably.
The svtkStream is used for ordering operations and explicit
synchronization."

In the simulation a *native stream* is an opaque integer handle (what a
``cudaStream_t`` degrades to once you cannot dereference it) kept in a
per-PM registry so conversion round-trips preserve identity.  Each
stream owns a :class:`~repro.hw.clock.Timeline`: operations enqueued on
a stream execute in order, and independent streams may overlap — the
same guarantees real PM streams give.
"""

from __future__ import annotations

import enum
import itertools
import threading

from repro.errors import StreamError
from repro.hamr.allocator import HOST_DEVICE_ID, PMKind
from repro.hw.clock import EventCategory, SimClock, Timeline, TimedEvent

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


_handle_counter = itertools.count(1)
_registry_lock = threading.Lock()
# (pm, handle) -> Stream, so from_native/to_native round-trip.
_native_registry: dict[tuple[PMKind, int], "Stream"] = {}


class Stream:
    """An ordered queue of device (or host) operations."""

    def __init__(self, device_id: int = 0, name: str | None = None, pm: PMKind = PMKind.CUDA):
        self.device_id = int(device_id)
        self.pm = pm
        self._handle = next(_handle_counter)
        loc = "host" if self.device_id == HOST_DEVICE_ID else f"dev{self.device_id}"
        self.name = name if name is not None else f"stream{self._handle}@{loc}"
        self.timeline = Timeline(self.name)
        with _registry_lock:
            _native_registry[(self.pm, self._handle)] = self

    # -- native-handle interchange --------------------------------------------
    def to_native(self, pm: PMKind | None = None) -> int:
        """The PM-native handle for this stream.

        Streams are raw scheduling contexts; the same handle is meaningful
        to every device PM on the node (as CUDA/HIP streams are on
        single-vendor nodes), so ``pm`` is accepted for interface parity
        and interop bookkeeping only.
        """
        if pm is not None and pm is not self.pm:
            with _registry_lock:
                _native_registry[(pm, self._handle)] = self
        return self._handle

    @classmethod
    def from_native(cls, pm: PMKind, handle: int, device_id: int = 0) -> "Stream":
        """Wrap a PM-native stream handle (identity-preserving)."""
        with _registry_lock:
            existing = _native_registry.get((pm, int(handle)))
        if existing is not None:
            return existing
        # An externally created native stream we have not seen: adopt it.
        s = cls.__new__(cls)
        s.device_id = int(device_id)
        s.pm = pm
        s._handle = int(handle)
        s.name = f"native{handle}@{pm.value}"
        s.timeline = Timeline(s.name)
        with _registry_lock:
            _native_registry[(pm, int(handle))] = s
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
        if after is not None:
            issue = max(issue, float(after))
        ev = self.timeline.schedule(issue, duration, name=name, category=category)
        if mode is StreamMode.SYNC:
            clock.wait_event(ev)
        return ev

    def wait_event(self, event: TimedEvent) -> None:
        """Order all future work on this stream after ``event``.

        The ``cudaStreamWaitEvent`` pattern: a cross-stream dependency
        expressed without blocking the issuing host thread — only the
        *stream* waits.
        """
        self.timeline.delay_until(event.end)

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


# Per-(device, thread-agnostic) default streams, like CUDA's stream 0.
_default_lock = threading.Lock()
_default_streams: dict[int, Stream] = {}


def default_stream(device_id: int = 0, pm: PMKind = PMKind.CUDA) -> Stream:
    """The process-wide default stream for ``device_id``.

    This is what the paper's listings call ``svtkStream()`` — the stream
    used when the caller does not manage one explicitly.
    """
    device_id = int(device_id)
    with _default_lock:
        s = _default_streams.get(device_id)
        if s is None:
            loc = "host" if device_id == HOST_DEVICE_ID else f"dev{device_id}"
            s = Stream(device_id=device_id, name=f"default@{loc}", pm=pm)
            _default_streams[device_id] = s
        return s


# Per-device dedicated copy streams (the DMA-engine lanes).
_copy_streams: dict[int, Stream] = {}


def copy_stream(device_id: int = 0, pm: PMKind = PMKind.CUDA) -> Stream:
    """The per-device dedicated copy stream for ``device_id``.

    Staging copies issued without an explicit stream order here — the
    copy-engine lane — rather than on the device's default compute
    stream (an async memcpy must not serialize subsequent kernels) and
    never on the node-wide host stream (whose shared cursor would
    couple unrelated ranks' simulated clocks in wall arrival order).
    """
    device_id = int(device_id)
    with _default_lock:
        s = _copy_streams.get(device_id)
        if s is None:
            loc = "host" if device_id == HOST_DEVICE_ID else f"dev{device_id}"
            s = Stream(device_id=device_id, name=f"copy@{loc}", pm=pm)
            _copy_streams[device_id] = s
        return s


def reset_default_streams() -> None:
    """Drop all default and copy streams (test helper), and the native
    registry, which otherwise pins every stream ever made."""
    with _default_lock:
        _default_streams.clear()
        _copy_streams.clear()
    with _registry_lock:
        _native_registry.clear()
