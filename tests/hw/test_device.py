"""Tests for virtual devices and the roofline cost model."""

from __future__ import annotations

import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.hw.device import HostCPU, VirtualDevice
from repro.hw.spec import DeviceSpec, HostSpec
from repro.units import GiB, MiB


@pytest.fixture
def gpu():
    return VirtualDevice(0)


@pytest.fixture
def cpu():
    return HostCPU()


class TestMemoryAccounting:
    def test_initially_empty(self, gpu):
        assert gpu._mem_used == 0

    def test_claim_and_release(self, gpu):
        gpu.claim_memory(MiB)
        assert gpu._mem_used == MiB
        gpu.release_memory(MiB)
        assert gpu._mem_used == 0

    def test_oom_raises_with_details(self):
        small = VirtualDevice(0, DeviceSpec(mem_capacity=MiB))
        with pytest.raises(DeviceOutOfMemoryError) as ei:
            small.claim_memory(2 * MiB)
        assert ei.value.requested == 2 * MiB
        assert ei.value.available == MiB

    def test_oom_leaves_accounting_unchanged(self):
        small = VirtualDevice(0, DeviceSpec(mem_capacity=MiB))
        small.claim_memory(MiB // 2)
        with pytest.raises(DeviceOutOfMemoryError):
            small.claim_memory(MiB)
        assert small._mem_used == MiB // 2

    def test_negative_claim_rejected(self, gpu):
        with pytest.raises(ValueError):
            gpu.claim_memory(-1)

    def test_release_never_goes_negative(self, gpu):
        gpu.release_memory(GiB)
        assert gpu._mem_used == 0


class TestGPUKernelTime:
    def test_launch_latency_floor(self, gpu):
        assert gpu.kernel_time() == pytest.approx(gpu.spec.launch_latency)

    def test_compute_bound_scales_with_flops(self, gpu):
        t1 = gpu.kernel_time(flops=1e12)
        t2 = gpu.kernel_time(flops=2e12)
        lat = gpu.spec.launch_latency
        assert (t2 - lat) == pytest.approx(2 * (t1 - lat))

    def test_memory_bound_scales_with_bytes(self, gpu):
        t1 = gpu.kernel_time(bytes_moved=1e9)
        t2 = gpu.kernel_time(bytes_moved=2e9)
        lat = gpu.spec.launch_latency
        assert (t2 - lat) == pytest.approx(2 * (t1 - lat))

    def test_roofline_takes_max(self, gpu):
        t_c = gpu.kernel_time(flops=1e13)
        t_m = gpu.kernel_time(bytes_moved=1e10)
        t_both = gpu.kernel_time(flops=1e13, bytes_moved=1e10)
        assert t_both == pytest.approx(max(t_c, t_m))

    def test_atomic_penalty_dilates_memory_term(self, gpu):
        streaming = gpu.kernel_time(bytes_moved=1e9, atomic_fraction=0.0)
        atomic = gpu.kernel_time(bytes_moved=1e9, atomic_fraction=1.0)
        assert atomic > streaming * 5  # substantial, spec default is 24x

    def test_atomic_fraction_validated(self, gpu):
        with pytest.raises(ValueError):
            gpu.kernel_time(bytes_moved=1.0, atomic_fraction=1.5)

    def test_alloc_async_cheaper_than_sync(self, gpu):
        sync = gpu.alloc_time(GiB, asynchronous=False)
        async_ = gpu.alloc_time(GiB, asynchronous=True)
        assert async_ < sync


class TestHostKernelTime:
    def test_more_cores_is_faster_when_compute_bound(self, cpu):
        t1 = cpu.kernel_time(flops=1e12, cores=1)
        t64 = cpu.kernel_time(flops=1e12, cores=64)
        assert t64 < t1 / 30  # near-linear scaling on compute-bound work

    def test_cores_clamped_to_spec(self, cpu):
        assert cpu.kernel_time(flops=1e9, cores=10_000) == pytest.approx(
            cpu.kernel_time(flops=1e9, cores=cpu.spec.cores)
        )

    def test_memory_bound_does_not_scale_with_cores(self, cpu):
        t1 = cpu.kernel_time(bytes_moved=1e10, cores=1)
        t64 = cpu.kernel_time(bytes_moved=1e10, cores=64)
        assert t64 == pytest.approx(t1)

    def test_no_atomic_penalty_on_host(self, cpu):
        plain = cpu.kernel_time(bytes_moved=1e9, atomic_fraction=0.0)
        atomic = cpu.kernel_time(bytes_moved=1e9, atomic_fraction=1.0)
        assert atomic == pytest.approx(plain)

    def test_aggregate_flops(self):
        spec = HostSpec(cores=8, fp64_flops_per_core=1e9)
        assert spec.fp64_flops == pytest.approx(8e9)


class TestRelativeSpeeds:
    def test_gpu_beats_host_on_streaming_compute(self, gpu, cpu):
        """A100 should be ~7-8x an EPYC socket on FP64 throughput."""
        flops = 1e13
        assert gpu.kernel_time(flops=flops) < cpu.kernel_time(flops=flops)

    def test_gpu_binning_advantage_erased_by_atomics(self, gpu, cpu):
        """The paper's observation: atomic-heavy binning does not win on GPU."""
        nbytes = 1e9
        gpu_t = gpu.kernel_time(bytes_moved=nbytes, atomic_fraction=0.5)
        cpu_t = cpu.kernel_time(bytes_moved=nbytes, atomic_fraction=0.5)
        assert gpu_t > 0.5 * cpu_t  # no large GPU win remains
