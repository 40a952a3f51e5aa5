"""Location-tagged, stream-ordered managed allocations.

A :class:`Buffer` is the simulated equivalent of a HAMR ``buffer<T>``:
a contiguous array of elements living either in host memory or on one
virtual device, managed by a specific :class:`~repro.hamr.allocator.Allocator`,
with operations ordered on a :class:`~repro.hamr.stream.Stream` and an
explicit synchronous/asynchronous completion mode.

Storage is a numpy array tagged with its location; the tag — not the
bytes — is what determines legality and cost of access, mirroring how a
device pointer is just a pointer you must not dereference from the
wrong side of the bus.  Direct access to :attr:`Buffer.data` from code
"running" elsewhere is a correctness bug in real life; here it is
permitted mechanically but every supported path goes through the access
APIs in :mod:`repro.hamr.view`, which charge the right simulated costs.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.errors import AllocationError, StreamError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.hamr.pool import POOL_HIT_COST, pool_for
from repro.hamr.runtime import current_clock, get_active_device
from repro.hamr.stream import Stream, StreamMode, default_stream
from repro.hw.clock import EventCategory, SimClock, TimedEvent
from repro.hw.node import get_node

__all__ = ["Buffer"]


class Buffer:
    """One managed allocation.  Construct via :meth:`allocate` or :meth:`wrap`."""

    def __init__(
        self,
        data: np.ndarray,
        allocator: Allocator,
        device_id: int,
        stream: Stream,
        stream_mode: StreamMode,
        owns_memory: bool,
        resource,
        name: str = "",
        deleter: Callable[[], None] | None = None,
    ):
        if data.ndim != 1:
            data = np.ascontiguousarray(data).reshape(-1)
        self._data = data
        self.allocator = allocator
        self.device_id = int(device_id)
        self.stream = stream
        self.stream_mode = stream_mode
        self.name = name or "buffer"
        self._owns_memory = owns_memory
        self._deleter = deleter
        self._freed = False
        self._ready_at = 0.0
        self._lock = threading.Lock()
        # The compute resource this allocation belongs to.  Captured at
        # construction: memory must be returned to the device it came
        # from, even if a different node is current when we are freed.
        self._resource = resource

    # -- constructors ---------------------------------------------------------
    @classmethod
    def allocate(
        cls,
        size: int,
        dtype: np.dtype | type = np.float64,
        allocator: Allocator = Allocator.MALLOC,
        device_id: int | None = None,
        stream: Stream | None = None,
        stream_mode: StreamMode = StreamMode.SYNC,
        name: str = "",
        clock: SimClock | None = None,
    ) -> "Buffer":
        """Allocate ``size`` elements of ``dtype`` with ``allocator``.

        Device allocators target the thread's active device unless
        ``device_id`` is given ("memory is allocated on the currently
        active device" — paper Section 2).  Asynchronous stream modes
        return immediately; the allocation is ready when the stream
        reaches it.
        """
        size = int(size)
        if size < 0:
            raise AllocationError(
                f"negative size: {size}",
                details={
                    "buffer": name or "alloc",
                    "device_id": device_id,
                    "stream_mode": stream_mode.value,
                },
            )
        host = allocator.is_host_resident
        if device_id is None:
            device_id = HOST_DEVICE_ID if host else get_active_device()
        allocator.validate_device(device_id)
        # Pinned-host and UVA memory is accounted where it physically lives.
        resource = get_node().resource(HOST_DEVICE_ID if host else device_id)
        if clock is None:
            clock = current_clock()
        if stream is None:
            stream = default_stream(device_id)
        elif stream.device_id not in (device_id, HOST_DEVICE_ID) and not host:
            raise StreamError(
                f"stream {stream.name} targets device {stream.device_id}, "
                f"cannot order allocation on device {device_id}",
                details={
                    "buffer": name or "alloc",
                    "device_id": device_id,
                    "stream": stream.name,
                    "stream_mode": stream_mode.value,
                },
            )

        data = np.empty(size, dtype=dtype)
        nbytes = data.nbytes
        if allocator.is_async:
            # Stream-ordered allocators are pool allocators: a freed
            # block of the same size is reused at pointer-bump cost.
            hit = pool_for(resource).acquire(nbytes)
            dur = (
                POOL_HIT_COST if hit
                else resource.alloc_time(nbytes, asynchronous=True)
            )
        else:
            resource.claim_memory(nbytes)
            dur = resource.alloc_time(nbytes, asynchronous=False)
        buf = cls(
            data, allocator, device_id, stream, stream_mode, True, resource,
            name or f"alloc[{size}x{data.dtype.name}]",
        )
        ev = stream.enqueue(
            clock, dur, f"alloc {buf.name}", EventCategory.ALLOC, stream_mode,
        )
        buf.mark_pending(ev)
        return buf

    @classmethod
    def wrap(
        cls,
        data: np.ndarray,
        allocator: Allocator,
        device_id: int | None = None,
        stream: Stream | None = None,
        stream_mode: StreamMode = StreamMode.SYNC,
        owner: object = None,
        deleter: Callable[[], None] | None = None,
        name: str = "",
    ) -> "Buffer":
        """Zero-copy construct around externally allocated memory.

        This is the transfer path the simulation uses to hand its arrays
        to SENSEI (paper Listing 1): no bytes move, and the necessary
        extra information — allocator, device ordinal, stream, stream
        mode — is captured alongside the pointer.  ``owner`` keeps the
        external owner alive (the smart-pointer coordination from the
        listing); ``deleter`` is invoked on :meth:`free` for raw-pointer
        hand-offs where the user manages the life cycle.
        """
        data = np.asarray(data)
        if device_id is None:
            device_id = (
                HOST_DEVICE_ID if allocator.is_host_resident else get_active_device()
            )
        allocator.validate_device(device_id)
        resource = get_node().resource(
            HOST_DEVICE_ID if allocator.is_host_resident else device_id
        )
        if stream is None:
            stream = default_stream(device_id)
        buf = cls(
            data, allocator, int(device_id), stream, stream_mode, False,
            resource, name or "wrapped", deleter,
        )
        buf._owner = owner  # keep-alive reference
        return buf

    # -- state ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Direct access to the raw storage (paper's ``GetData()``).

        Only correct when the caller already executes where the data
        lives and has synchronized; the location/PM-agnostic path is
        :func:`repro.hamr.view.accessible_view`.
        """
        if self._freed:
            raise AllocationError(
                f"buffer {self.name} was freed",
                details={
                    "buffer": self.name,
                    "device_id": self.device_id,
                    "stream_mode": self.stream_mode.value,
                },
            )
        return self._data

    @property
    def size(self) -> int:
        return int(self._data.size)

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def on_host(self) -> bool:
        return self.allocator.is_host_resident

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def ready_at(self) -> float:
        """Simulated time at which the contents are valid."""
        return self._ready_at

    def mark_pending(self, event: TimedEvent) -> None:
        """Record that ``event`` must complete before the contents are valid."""
        with self._lock:
            if event.end > self._ready_at:
                self._ready_at = event.end

    def synchronize(self, clock: SimClock | None = None) -> float:
        """Block the issuing clock until in-flight operations complete.

        "Make sure the data in flight, if it was moved, has arrived"
        (paper Listing 3).
        """
        clock = clock if clock is not None else current_clock()
        return clock.wait_for(max(self._ready_at, 0.0))

    def host_accessible(self) -> bool:
        """True if the bytes can be read from the host without a move."""
        return self.on_host or self.allocator.is_uva

    def device_accessible(self, device_id: int) -> bool:
        """True if the bytes can be read from ``device_id`` without a move."""
        if device_id == HOST_DEVICE_ID:
            return self.host_accessible()
        a = self.allocator
        return (
            self.device_id == device_id and not a.is_host_resident
        ) or a.is_uva or a.is_pinned_host

    # -- mutation ------------------------------------------------------------------
    def fill(self, value: float, clock: SimClock | None = None) -> TimedEvent:
        """Set every element to ``value`` (device memset / host fill)."""
        if clock is None:
            clock = current_clock()
        data = self._data
        data.fill(value)
        ev = self.stream.enqueue(
            clock, self._resource.memset_time(data.nbytes), f"fill {self.name}",
            EventCategory.COMPUTE, self.stream_mode,
        )
        self.mark_pending(ev)
        return ev

    def free(self, clock: SimClock | None = None) -> None:
        """Release the allocation (to the resource it came from).  Idempotent."""
        if self._freed:
            return
        if self._owns_memory:
            resource = self._resource
            nbytes = self._data.nbytes
            asynchronous = self.allocator.is_async
            if asynchronous:
                # Back to the stream-ordered pool: the footprint stays
                # on the device until the pool is trimmed.
                pool_for(resource).release(nbytes)
            else:
                resource.release_memory(nbytes)
            self.stream.enqueue(
                clock if clock is not None else current_clock(),
                resource.free_time(asynchronous), f"free {self.name}",
                EventCategory.FREE, self.stream_mode,
            )
        if self._deleter is not None:
            self._deleter()
            self._deleter = None
        self._freed = True

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loc = "host" if self.on_host else f"dev{self.device_id}"
        return (
            f"Buffer({self.name!r}, n={self.size}, dtype={self.dtype}, "
            f"alloc={self.allocator.name}, loc={loc})"
        )
