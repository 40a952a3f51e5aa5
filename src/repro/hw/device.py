"""Virtual compute devices.

A :class:`VirtualDevice` stands in for one accelerator (an A100 in the
paper's testbed); :class:`HostCPU` stands in for the node's CPU.  Both
expose:

- *duration formulas* — analytic estimates of how long a kernel, an
  allocation, or a free would take on the real part, driven by the specs
  in :mod:`repro.hw.spec`;
- *memory accounting* — simulated capacity tracking so that the
  out-of-memory behaviour of resource-hungry simulations (a central
  concern motivating zero-copy transfer in the paper) is reproducible;
- the *lanes* — the :class:`~repro.hw.clock.Timeline` objects that order
  and record all simulated work on the part: ``timeline`` (the default
  stream's queue), ``copy_timeline`` (the DMA engine) and one more per
  explicitly constructed stream.  Nothing else holds a device's time.

Kernel durations use the roofline form::

    t = launch_latency + max(flops / F, bytes / B) / efficiency

with the memory term dilated by ``atomic_update_penalty`` for the
atomic fraction of traffic — the effect that makes data binning a poor
fit for GPUs (Section 4.4 of the paper).
"""

from __future__ import annotations

import threading

from repro.errors import DeviceOutOfMemoryError
from repro.hw.clock import EventCategory, Timeline
from repro.hw.spec import DeviceSpec, HostSpec

__all__ = ["VirtualDevice", "HostCPU", "ComputeResource"]


class ComputeResource:
    """Shared behaviour of host and device compute resources."""

    def __init__(self, name: str, mem_capacity: int):
        self.name = str(name)
        self.timeline = Timeline(name)
        # Dedicated timeline for DMA traffic so copies can overlap compute,
        # as they do on real parts with copy engines.
        self.copy_timeline = Timeline(f"{name}.copy")
        #: Every timeline work on this part is scheduled on: the two
        #: above, then one per explicitly constructed stream.
        self.lanes: list[Timeline] = [self.timeline, self.copy_timeline]
        # Slots repro.hamr fills (hw imports nothing from it): the
        # streams that schedule on the two default lanes, keyed by the
        # lane's attribute name, and the stream-ordered memory pool.
        self.streams: dict = {}
        self.pool = None
        #: Guards ``lanes`` and the slots.
        self.lock = threading.Lock()
        self._mem_capacity = int(mem_capacity)
        self._mem_used = 0
        self._mem_lock = threading.Lock()

    # -- memory accounting -------------------------------------------------
    @property
    def mem_capacity(self) -> int:
        return self._mem_capacity

    def claim_memory(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of simulated memory or raise OOM."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        with self._mem_lock:
            if self._mem_used + nbytes > self._mem_capacity:
                raise DeviceOutOfMemoryError(
                    self.name, nbytes, self._mem_capacity - self._mem_used
                )
            self._mem_used += nbytes

    def release_memory(self, nbytes: int) -> None:
        """Return ``nbytes`` to the simulated pool."""
        nbytes = int(nbytes)
        with self._mem_lock:
            self._mem_used = max(0, self._mem_used - nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class VirtualDevice(ComputeResource):
    """One simulated accelerator.

    Parameters
    ----------
    device_id:
        On-node ordinal of the device, matching what a runtime device
        query (``cudaGetDevice``-style) would report.
    spec:
        Cost-model parameters.
    node_id:
        Ordinal of the owning node, used only for naming/reporting.
    """

    is_host = False

    def __init__(self, device_id: int, spec: DeviceSpec | None = None, node_id: int = 0):
        self.device_id = int(device_id)
        self.node_id = int(node_id)
        self.spec = spec if spec is not None else DeviceSpec()
        super().__init__(f"node{node_id}.gpu{device_id}", self.spec.mem_capacity)

    # -- duration formulas -------------------------------------------------
    def kernel_time(
        self,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        atomic_fraction: float = 0.0,
    ) -> float:
        """Roofline duration of one kernel on this device.

        ``atomic_fraction`` is the fraction of the memory traffic made of
        atomic read-modify-write updates; it dilates the memory-bound
        term by the spec's atomic penalty.
        """
        if not 0.0 <= atomic_fraction <= 1.0:
            raise ValueError(f"atomic_fraction must be in [0,1]: {atomic_fraction}")
        s = self.spec
        t_compute = flops / s.fp64_flops
        streaming = bytes_moved * (1.0 - atomic_fraction)
        atomic = bytes_moved * atomic_fraction * s.atomic_update_penalty
        t_memory = (streaming + atomic) / s.mem_bandwidth
        return s.launch_latency + max(t_compute, t_memory) / s.compute_efficiency

    def alloc_time(self, nbytes: int, asynchronous: bool = False) -> float:
        """Duration of a device allocation of ``nbytes``."""
        base = (
            self.spec.alloc_async_latency if asynchronous else self.spec.alloc_latency
        )
        # Large synchronous allocations also pay a zero-fill style cost.
        return base + (0.0 if asynchronous else nbytes / self.spec.mem_bandwidth)

    def free_time(self, asynchronous: bool = False) -> float:
        """Duration of releasing a device allocation."""
        return self.spec.alloc_async_latency if asynchronous else self.spec.alloc_latency

    def memset_time(self, nbytes: int) -> float:
        """Duration of a device memset of ``nbytes``."""
        return self.spec.launch_latency + nbytes / self.spec.mem_bandwidth


class HostCPU(ComputeResource):
    """The node's simulated CPU.

    ``kernel_time`` accepts a core count so callers can model running an
    analysis on a subset of cores while the simulation holds the rest —
    the situation the paper's *host* placement creates.
    """

    is_host = True
    device_id = -1

    def __init__(self, spec: HostSpec | None = None, node_id: int = 0):
        self.node_id = int(node_id)
        self.spec = spec if spec is not None else HostSpec()
        super().__init__(f"node{node_id}.cpu", self.spec.mem_capacity)

    def kernel_time(
        self,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        atomic_fraction: float = 0.0,
        cores: int | None = None,
    ) -> float:
        """Roofline duration on ``cores`` CPU cores (all, by default).

        CPU threads do not pay a GPU-style atomic penalty: per-bin
        contention is far milder on tens of threads than on tens of
        thousands, so ``atomic_fraction`` is accepted for interface
        parity but applied with a factor of 1.
        """
        if not 0.0 <= atomic_fraction <= 1.0:
            raise ValueError(f"atomic_fraction must be in [0,1]: {atomic_fraction}")
        s = self.spec
        n = s.cores if cores is None else max(1, min(int(cores), s.cores))
        t_compute = flops / (n * s.fp64_flops_per_core)
        t_memory = bytes_moved / s.mem_bandwidth
        return s.dispatch_latency + max(t_compute, t_memory)

    def alloc_time(self, nbytes: int, asynchronous: bool = False) -> float:
        """Duration of a host allocation (cheap; first-touch ignored)."""
        return self.spec.alloc_latency

    def free_time(self, asynchronous: bool = False) -> float:
        return self.spec.alloc_latency

    def memset_time(self, nbytes: int) -> float:
        return self.spec.dispatch_latency + nbytes / self.spec.mem_bandwidth
