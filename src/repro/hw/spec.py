"""Cost-model parameter bundles for the virtual hardware.

The default values are calibrated from public spec sheets for the
machine used in the paper's evaluation (NERSC Perlmutter GPU nodes):

- GPU: NVIDIA A100-SXM4-40GB — 9.7 TFLOP/s FP64 (19.5 with FMA pairing,
  we use the conservative vector rate), 1555 GB/s HBM2e bandwidth,
  40 GB capacity, ~5 us kernel-launch latency.
- Host: AMD EPYC 7763 — 64 cores, ~39.2 GFLOP/s FP64 per core peak
  (we use a 20 GFLOP/s effective rate), 204.8 GB/s DRAM bandwidth.
- Host link: PCIe 4.0 x16 — 25 GB/s effective per direction.
- Device-device: NVLink3 pairs — 200 GB/s effective.

The *atomic_update_penalty* captures the observation from the paper's
Section 4.4 that data binning "is not an ideal algorithm for GPUs since
it requires the use of atomic memory updates to deal with races between
GPU threads accessing the same bin": atomic-heavy kernels run at a
fraction of streaming memory bandwidth.  The default is calibrated so
that GPU binning lands close to CPU binning throughput, matching the
paper's "negligible difference between the host only and same device
placements" finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.units import GiB, gbs, gflops, tflops, us

__all__ = [
    "DeviceSpec",
    "HostSpec",
    "LinkSpec",
    "NodeSpec",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters describing one virtual accelerator.

    Attributes
    ----------
    name:
        Human-readable device model name.
    fp64_flops:
        Peak double-precision rate in FLOP/s.
    mem_bandwidth:
        Device memory bandwidth in bytes/s.
    mem_capacity:
        Device memory capacity in bytes.  Allocations beyond this raise
        :class:`repro.errors.DeviceOutOfMemoryError`.
    launch_latency:
        Fixed per-kernel launch cost in seconds.
    alloc_latency:
        Fixed cost of a synchronous device allocation in seconds
        (``cudaMalloc``-like).  Asynchronous (stream-ordered) allocations
        cost :attr:`alloc_async_latency`.
    alloc_async_latency:
        Cost of a stream-ordered allocation (``cudaMallocAsync``-like).
    atomic_update_penalty:
        Effective slowdown factor applied to the memory-bound portion of
        kernels dominated by atomic read-modify-write updates.
    compute_efficiency:
        Fraction of peak FLOP/s that well-written real kernels achieve;
        applied to the compute-bound portion of kernel durations.
    """

    name: str = "A100-SXM4-40GB"
    fp64_flops: float = tflops(9.7)
    mem_bandwidth: float = gbs(1555.0)
    mem_capacity: int = 40 * GiB
    launch_latency: float = us(5.0)
    alloc_latency: float = us(100.0)
    alloc_async_latency: float = us(10.0)
    atomic_update_penalty: float = 24.0
    compute_efficiency: float = 0.70


@dataclass(frozen=True)
class HostSpec:
    """Parameters describing the virtual host CPU.

    ``fp64_flops_per_core`` is an *effective* (not peak) per-core rate:
    numpy-style vectorized double-precision code on one EPYC core.
    """

    name: str = "EPYC-7763"
    cores: int = 64
    fp64_flops_per_core: float = gflops(20.0)
    mem_bandwidth: float = gbs(204.8)
    mem_capacity: int = 256 * GiB
    alloc_latency: float = us(1.0)
    dispatch_latency: float = us(1.0)

    @property
    def fp64_flops(self) -> float:
        """Aggregate FLOP/s across all cores."""
        return self.cores * self.fp64_flops_per_core


@dataclass(frozen=True)
class LinkSpec:
    """Data-movement rates between memory spaces on one node."""

    h2d_bandwidth: float = gbs(25.0)
    d2h_bandwidth: float = gbs(25.0)
    d2d_bandwidth: float = gbs(200.0)
    latency: float = us(10.0)
    pinned_speedup: float = 1.6  # page-locked host buffers transfer faster


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: a host CPU plus ``num_devices`` accelerators."""

    host: HostSpec = field(default_factory=HostSpec)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    num_devices: int = 4

    def with_devices(self, n: int) -> "NodeSpec":
        """Return a copy of this spec with ``n`` devices per node."""
        if n < 0:
            raise ValueError(f"num_devices must be >= 0, got {n}")
        return replace(self, num_devices=n)
