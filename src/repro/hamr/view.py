"""Shared views — the ``std::shared_ptr`` returned by access APIs.

From the paper (Section 2): "A ``std::shared_ptr`` is returned from the
access API so that if a temporary were used it will automatically be
cleaned up when the ``std::shared_ptr`` goes out of scope."

:class:`SharedView` reproduces those semantics with Python lifetime
management: if satisfying the access request required allocating a
temporary and moving the data, the temporary is freed when the view is
released (explicitly, by ``with``-block exit, or by garbage
collection).  If the request was satisfiable in place, the view is a
zero-cost alias of the original storage.
"""

from __future__ import annotations

from repro.hamr.allocator import PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.copier import transfer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import Stream, StreamMode
from repro.hw.clock import SimClock

import numpy as np

__all__ = ["SharedView", "accessible_view"]


class SharedView:
    """A possibly temporary, read-oriented view of a buffer's data.

    ``source`` may be ``None`` for views over plain host arrays (the
    host-only data-array baseline); such views are always in place.
    """

    __slots__ = ("_array", "_source", "_temporary", "_released")

    def __init__(
        self,
        array: np.ndarray,
        source: Buffer | None = None,
        temporary: Buffer | None = None,
    ):
        self._array = array
        self._source = source
        self._temporary = temporary
        self._released = False

    def get(self) -> np.ndarray:
        """The underlying array (the paper's ``sp.get()`` raw pointer)."""
        if self._released:
            raise RuntimeError("view was released")
        return self._array

    @property
    def is_temporary(self) -> bool:
        """True if a move into a temporary was required."""
        return self._temporary is not None

    @property
    def buffer(self) -> Buffer | None:
        """The buffer actually backing the view (``None`` for plain arrays)."""
        return self._temporary if self._temporary is not None else self._source

    @property
    def ready_at(self) -> float:
        buf = self.buffer
        return 0.0 if buf is None else buf.ready_at

    def synchronize(self, clock: SimClock | None = None) -> float:
        """Wait until any in-flight move backing this view has arrived."""
        buf = self.buffer
        if buf is None:
            return (clock if clock is not None else current_clock()).now
        return buf.synchronize(clock)

    def release(self) -> None:
        """Free the temporary, if any.  Idempotent."""
        if self._released:
            return
        self._released = True
        if self._temporary is not None:
            self._temporary.free()
            self._temporary = None
        self._array = None  # type: ignore[assignment]

    def __enter__(self) -> "SharedView":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass

    def __len__(self) -> int:
        return 0 if self._released else int(self._array.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "temporary" if self.is_temporary else "in-place"
        src = self._source.name if self._source is not None else "<ndarray>"
        return f"SharedView({kind}, source={src!r})"


def accessible_view(
    buffer: Buffer,
    pm: PMKind,
    device_id: int,
    stream: Stream | None = None,
    mode: StreamMode | None = None,
    clock: SimClock | None = None,
) -> SharedView:
    """Location and PM agnostic read access (the HDA access API core).

    The caller specifies where (host or a device ordinal) and in which
    PM the data will be accessed.  If the managed data is already
    accessible there, no work is done and direct access is granted.
    Otherwise a temporary is allocated in the requested space, the data
    is moved (synchronously or asynchronously per ``mode``), and the
    returned view owns the temporary.

    Any PM can read raw memory resident in the right space — on
    single-address-space-per-device nodes, CUDA, HIP, and OpenMP device
    pointers are interchangeable — so PM interoperability reduces to
    *location* plus allocator bookkeeping, which is exactly how the
    temporary is allocated (with ``pm``'s own allocator).
    """
    if buffer.device_accessible(device_id):
        return SharedView(buffer.data, buffer)
    tmp = transfer(
        buffer, device_id, pm, stream=stream, mode=mode, clock=clock,
        name=f"view-of-{buffer.name}",
    )
    return SharedView(tmp.data, buffer, tmp)
