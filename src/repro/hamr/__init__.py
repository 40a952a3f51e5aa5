"""HAMR — the Heterogeneous Accelerator Memory Resource (simulated).

This package reimplements, on the virtual hardware of :mod:`repro.hw`,
the memory-management library the paper's data model extensions are
built on (Loring, "HAMR the Heterogeneous Accelerator Memory Resource",
2022).  It provides:

- :class:`~repro.hamr.allocator.Allocator` — the ``svtkAllocator``
  enumeration: which programming model, and which method within it,
  allocates and manages the memory;
- :class:`~repro.hamr.stream.Stream` / ``StreamMode`` — the
  ``svtkStream`` abstraction over PM streams, with automatic conversion
  to and from native handles; streams, their timelines and the memory
  pools hang off the current :class:`~repro.hw.node.VirtualNode`, never
  off this package;
- :class:`~repro.hamr.buffer.Buffer` — a location-tagged, stream-ordered
  managed allocation; supports zero-copy wrapping of externally
  allocated memory with coordinated life-cycle management;
- :mod:`~repro.hamr.copier` — the data-movement engine used to satisfy
  location/PM-agnostic access requests;
- :class:`~repro.hamr.view.SharedView` — the ``std::shared_ptr``-like
  handle returned by access APIs, which cleans up temporaries
  automatically when it goes out of scope.
"""

from repro.hamr.allocator import Allocator, PMKind, HOST_DEVICE_ID
from repro.hamr.stream import Stream, StreamMode, default_stream
from repro.hamr.runtime import (
    current_clock,
    use_clock,
    set_active_device,
    get_active_device,
    active_device,
)
from repro.hamr.buffer import Buffer
from repro.hamr.copier import transfer
from repro.hamr.view import SharedView, accessible_view

__all__ = [
    "Allocator",
    "PMKind",
    "HOST_DEVICE_ID",
    "Stream",
    "StreamMode",
    "default_stream",
    "current_clock",
    "use_clock",
    "set_active_device",
    "get_active_device",
    "active_device",
    "Buffer",
    "transfer",
    "SharedView",
    "accessible_view",
]
