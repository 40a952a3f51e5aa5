"""Thread-local runtime context: current clock and active device.

Two pieces of per-thread state mirror how real device runtimes behave:

- the **current clock** — each execution context (an MPI rank's main
  thread, or an asynchronous in situ thread) owns a
  :class:`~repro.hw.clock.SimClock` that tracks its simulated time.
  Library calls read it implicitly, the same way real code implicitly
  spends wall-clock time;
- the **active device** — the paper's data model allocates "on the
  currently active device", matching ``cudaSetDevice`` /
  ``omp_set_default_device`` semantics.  :func:`set_active_device` and
  the :func:`active_device` context manager reproduce that.
"""

from __future__ import annotations

import contextlib
import threading

from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hw.clock import SimClock
from repro.hw.node import get_node

__all__ = [
    "current_clock",
    "set_current_clock",
    "use_clock",
    "get_active_device",
    "set_active_device",
    "active_device",
]

_tls = threading.local()


def current_clock() -> SimClock:
    """The calling thread's simulated clock (created lazily)."""
    clk = getattr(_tls, "clock", None)
    if clk is None:
        clk = SimClock(name=f"clock-{threading.get_ident()}")
        _tls.clock = clk
    return clk


def set_current_clock(clock: SimClock) -> SimClock | None:
    """Install ``clock`` for this thread; returns the previous clock."""
    prev = getattr(_tls, "clock", None)
    _tls.clock = clock
    return prev


@contextlib.contextmanager
def use_clock(clock: SimClock):
    """Run a block with ``clock`` as the thread's simulated clock."""
    prev = set_current_clock(clock)
    try:
        yield clock
    finally:
        _tls.clock = prev


def get_active_device() -> int:
    """The calling thread's active device ordinal (0 by default).

    Returns :data:`~repro.hamr.allocator.HOST_DEVICE_ID` only if the
    thread explicitly selected the host.
    """
    return getattr(_tls, "active_device", 0)


def set_active_device(device_id: int) -> int:
    """Select the active device (``cudaSetDevice`` equivalent).

    ``HOST_DEVICE_ID`` (-1) selects the host.  Returns the previously
    active device.  Raises :class:`~repro.errors.LocationError` for a
    nonexistent device on the current node.
    """
    device_id = int(device_id)
    if device_id != HOST_DEVICE_ID:
        get_node().device(device_id)  # validates existence
    prev = get_active_device()
    _tls.active_device = device_id
    return prev


@contextlib.contextmanager
def active_device(device_id: int):
    """Run a block with ``device_id`` active, restoring the previous one."""
    prev = set_active_device(device_id)
    try:
        yield device_id
    finally:
        _tls.active_device = prev
