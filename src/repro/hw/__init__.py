"""Virtual hardware substrate.

This package simulates the heterogeneous node architecture the paper's
experiments ran on (NERSC Perlmutter GPU nodes: one AMD EPYC host CPU
plus four NVIDIA A100 accelerators per node).  Real accelerators are not
available in this environment, so devices are modelled as *virtual
devices*: numpy arrays tagged with a location stand in for device
allocations, and a calibrated analytic cost model attached to
discrete-event timelines stands in for execution time.

The substitution preserves the behaviour the paper studies — placement,
data movement, synchronous/asynchronous overlap, and contention — while
keeping all numerics real (kernels execute numpy code on the tagged
storage).

Public surface
--------------
- :class:`~repro.hw.spec.DeviceSpec`, :class:`~repro.hw.spec.HostSpec`,
  :class:`~repro.hw.spec.LinkSpec`, :class:`~repro.hw.spec.NodeSpec` —
  cost-model parameter bundles.
- :class:`~repro.hw.clock.SimClock`, :class:`~repro.hw.clock.Timeline`,
  :class:`~repro.hw.clock.TimedEvent` — discrete-event time.
- :class:`~repro.hw.device.VirtualDevice`, :class:`~repro.hw.device.HostCPU`.
- :class:`~repro.hw.node.VirtualNode` plus the module-level topology
  queries (:func:`~repro.hw.node.get_node`,
  :func:`~repro.hw.node.num_devices`, ...).  The node owns all of a
  run's simulated-time state — :meth:`~repro.hw.node.VirtualNode.timelines`
  lists it — so installing a fresh one is the only reset there is.
- :class:`~repro.hw.contention.ContentionModel`.
"""

from repro.hw.spec import DeviceSpec, HostSpec, LinkSpec, NodeSpec
from repro.hw.clock import SimClock, Timeline, TimedEvent, EventCategory
from repro.hw.device import VirtualDevice, HostCPU
from repro.hw.node import (
    VirtualNode,
    get_node,
    set_node,
    reset_node,
    num_devices,
)
from repro.hw.contention import ContentionModel, SharedResource

__all__ = [
    "DeviceSpec",
    "HostSpec",
    "LinkSpec",
    "NodeSpec",
    "SimClock",
    "Timeline",
    "TimedEvent",
    "EventCategory",
    "VirtualDevice",
    "HostCPU",
    "VirtualNode",
    "get_node",
    "set_node",
    "reset_node",
    "num_devices",
    "ContentionModel",
    "SharedResource",
]
