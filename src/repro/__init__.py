"""repro — a reproduction of "Extensions to the SENSEI In situ Framework
for Heterogeneous Architectures" (Loring, Weber, Bethel, Mahoney;
SC-W 2023).

The package is organized bottom-up:

- :mod:`repro.hw` — virtual heterogeneous hardware (nodes, GPUs,
  discrete-event timelines, contention model);
- :mod:`repro.hamr` — the HAMR memory resource: allocators, streams,
  managed buffers, data movement, shared views;
- :mod:`repro.pm` — kernel launch on the virtual devices (a PM is an
  allocator family, :class:`~repro.hamr.allocator.Allocator`);
- :mod:`repro.mpi` — an in-process SPMD MPI substitute;
- :mod:`repro.svtk` — the SENSEI data model: ``DataArray``,
  ``HAMRDataArray`` (the paper's contribution), tables, meshes, writers;
- :mod:`repro.sensei` — the in situ framework with the paper's
  execution-model extensions (lockstep/asynchronous execution, device
  placement, XML configuration);
- :mod:`repro.binning` — the data-binning analysis used in the
  evaluation;
- :mod:`repro.newton` — the Newton++ n-body simulation;
- :mod:`repro.harness` — the experiment harness regenerating Table 1
  and Figures 1-3.

Quickstart::

    import numpy as np
    from repro import (Allocator, HAMRDataArray, PMKind)

    arr = HAMRDataArray.new("simData", 1_000_000, allocator=Allocator.CUDA,
                            device_id=0)
    arr.fill(-3.14)
    view = arr.get_host_accessible()
    arr.synchronize()
    host_values = view.get()
"""

from repro.errors import ReproError
from repro.hamr import (
    Allocator,
    Buffer,
    PMKind,
    SharedView,
    Stream,
    StreamMode,
    accessible_view,
    current_clock,
    default_stream,
    get_active_device,
    set_active_device,
)
from repro.hw import (
    DeviceSpec,
    HostSpec,
    NodeSpec,
    SimClock,
    VirtualNode,
    get_node,
    num_devices,
    set_node,
)
from repro.pm import launch

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # hamr
    "Allocator",
    "Buffer",
    "PMKind",
    "SharedView",
    "Stream",
    "StreamMode",
    "accessible_view",
    "current_clock",
    "default_stream",
    "get_active_device",
    "set_active_device",
    # hw
    "DeviceSpec",
    "HostSpec",
    "NodeSpec",
    "SimClock",
    "VirtualNode",
    "get_node",
    "num_devices",
    "set_node",
    # pm
    "launch",
    # populated lazily below
    "HAMRDataArray",
    "DataArray",
    "TableData",
    "UniformCartesianMesh",
]


def __getattr__(name: str):
    # Late imports so that `import repro` stays cheap and the data-model
    # layer can import the substrate without cycles.
    if name in ("HAMRDataArray", "DataArray", "TableData", "UniformCartesianMesh"):
        import repro.svtk as _svtk

        return getattr(_svtk, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
