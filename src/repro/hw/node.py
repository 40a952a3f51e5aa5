"""Virtual node topology and system queries.

A :class:`VirtualNode` bundles one :class:`~repro.hw.device.HostCPU`
and ``num_devices`` :class:`~repro.hw.device.VirtualDevice` instances,
plus the link cost model for data movement between them.

A process-global *current node* plays the role the local machine plays
for a real process: ``num_devices()`` is the equivalent of
``cudaGetDeviceCount`` / ``omp_get_num_devices`` and is what SENSEI's
automatic device selection (Eq. 1 in the paper) queries at run time.
Tests and the harness install their own nodes via :func:`set_node`.

The node is also the one owner of a run's simulated-time state: every
resource's lanes, streams and memory pool, the native stream-handle
table and the transport timelines hang off it
(:meth:`VirtualNode.timelines` enumerates the ledger), so installing a
fresh node *is* the reset — there is no other.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.errors import LocationError
from repro.hw.clock import Timeline
from repro.hw.device import HostCPU, VirtualDevice
from repro.hw.spec import NodeSpec

__all__ = [
    "VirtualNode",
    "get_node",
    "set_node",
    "reset_node",
    "num_devices",
]


class VirtualNode:
    """One simulated compute node."""

    def __init__(self, spec: NodeSpec | None = None, node_id: int = 0):
        self.spec = spec if spec is not None else NodeSpec()
        self.node_id = int(node_id)
        self.host = HostCPU(self.spec.host, node_id=self.node_id)
        self.devices = [
            VirtualDevice(i, self.spec.device, node_id=self.node_id)
            for i in range(self.spec.num_devices)
        ]
        # Slots the owning layers fill (hw imports nothing from them):
        # repro.hamr's (pm, native handle) -> Stream table and
        # repro.transport's per-endpoint timelines.
        self.native_streams: dict = {}
        self.transport_timelines: list[Timeline] = []
        #: Guards the two slots above.
        self.lock = threading.Lock()

    # -- lookup -------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device(self, device_id: int) -> VirtualDevice:
        """Return device ``device_id`` or raise :class:`LocationError`."""
        if not 0 <= device_id < len(self.devices):
            raise LocationError(
                f"node {self.node_id} has {len(self.devices)} devices; "
                f"device {device_id} does not exist"
            )
        return self.devices[device_id]

    def resource(self, device_id: int) -> VirtualDevice | HostCPU:
        """Return the compute resource for ``device_id`` (-1 = host)."""
        if device_id < 0:
            return self.host
        return self.device(device_id)

    # -- data movement cost --------------------------------------------------
    def transfer_time(
        self, nbytes: int, src_device: int, dst_device: int, pinned: bool = False
    ) -> float:
        """Duration of moving ``nbytes`` between two memory spaces.

        ``src_device``/``dst_device`` use -1 for host memory.  Same-space
        "transfers" cost zero: that is exactly the zero-copy case.
        """
        if src_device == dst_device:
            return 0.0
        link = self.spec.link
        if src_device < 0:  # host -> device
            bw = link.h2d_bandwidth
            if pinned:
                bw *= link.pinned_speedup
        elif dst_device < 0:  # device -> host
            bw = link.d2h_bandwidth
            if pinned:
                bw *= link.pinned_speedup
        else:  # device -> device
            bw = link.d2d_bandwidth
        return link.latency + int(nbytes) / bw

    def iter_resources(self) -> Iterator[VirtualDevice | HostCPU]:
        yield self.host
        yield from self.devices

    def timelines(self) -> list[Timeline]:
        """Every timeline this node's simulated time is kept on: each
        resource's lanes (host first), then the transport timelines."""
        out: list[Timeline] = []
        for r in self.iter_resources():
            with r.lock:
                out.extend(r.lanes)
        with self.lock:
            out.extend(self.transport_timelines)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualNode(id={self.node_id}, devices={self.num_devices})"


# -- process-global current node ---------------------------------------------

_lock = threading.Lock()
_current_node: VirtualNode | None = None


def get_node() -> VirtualNode:
    """Return the current node, creating a default one on first use.

    Reading the installed node is one atomic load, so only the first
    use of a fresh slot takes the lock."""
    global _current_node
    node = _current_node
    if node is None:
        with _lock:
            if _current_node is None:
                _current_node = VirtualNode()
            node = _current_node
    return node


def set_node(node: VirtualNode) -> VirtualNode:
    """Install ``node`` as the current node; returns the previous one."""
    global _current_node
    with _lock:
        prev, _current_node = _current_node, node
        return prev


def reset_node() -> None:
    """Discard the current node; the next query creates a fresh default."""
    global _current_node
    with _lock:
        _current_node = None


def num_devices() -> int:
    """Number of accelerators on the current node (``n_a`` in Eq. 1)."""
    return get_node().num_devices
