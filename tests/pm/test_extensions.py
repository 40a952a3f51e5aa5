"""Tests for the Section 5 extension PMs: SYCL and Kokkos.

The paper's future work — "We will also add support for SYCL as well as
third party PMs such as Kokkos" — implemented against the same data
model, so these tests exercise the full interop path: allocate under
one extension PM, consume from any other PM anywhere on the node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.hamr.runtime import set_active_device
from repro.hw.node import get_node
from repro.pm.kernels import launch
from repro.svtk.hamr_array import HAMRDataArray


class TestSyclAllocators:
    def test_device_allocation(self):
        a = HAMRDataArray.new("x", 16, allocator=Allocator.SYCL, device_id=1)
        assert a.device_id == 1
        assert not a.on_host

    def test_shared_usm_accessible_everywhere(self):
        """malloc_shared memory migrates: zero-copy from host or device."""
        a = HAMRDataArray.new("x", 16, allocator=Allocator.SYCL_SHARED, device_id=0)
        assert not a.get_host_accessible().is_temporary
        assert not a.get_cuda_accessible(device_id=3).is_temporary

    def test_host_usm_device_visible(self):
        """malloc_host memory is host-resident and device-visible."""
        a = HAMRDataArray.new("x", 16, allocator=Allocator.SYCL_HOST)
        assert a.on_host
        assert not a.get_sycl_accessible(device_id=2).is_temporary

    def test_host_usm_accounted_on_host(self):
        node = get_node()
        a = HAMRDataArray.new("x", 1000, allocator=Allocator.SYCL_HOST)
        assert node.host._mem_used == a.buffer.nbytes
        assert all(d._mem_used == 0 for d in node.devices)


class TestKokkosAllocator:
    def test_device_allocation(self):
        a = HAMRDataArray.new("v", 8, allocator=Allocator.KOKKOS, device_id=2)
        assert a.device_id == 2
        assert a.allocator is Allocator.KOKKOS


class TestCrossPMInterop:
    def test_sycl_data_consumed_by_cuda(self):
        """Data allocated under SYCL, read by CUDA code elsewhere."""
        a = HAMRDataArray.new("x", 8, allocator=Allocator.SYCL, device_id=0)
        a.fill(4.0)
        v = a.get_cuda_accessible(device_id=1)
        assert v.is_temporary
        a.synchronize()
        np.testing.assert_array_equal(v.get(), [4.0] * 8)

    def test_kokkos_data_consumed_by_host(self):
        a = HAMRDataArray.new("x", 8, allocator=Allocator.KOKKOS, device_id=3)
        a.fill(7.0)
        v = a.get_host_accessible()
        assert v.is_temporary
        a.synchronize()
        np.testing.assert_array_equal(v.get(), [7.0] * 8)

    def test_openmp_data_consumed_by_sycl_same_device(self):
        """Same-device, cross-PM access is zero-copy (raw device pointers)."""
        a = HAMRDataArray.new("x", 8, allocator=Allocator.OPENMP, device_id=1)
        assert not a.get_sycl_accessible(device_id=1).is_temporary

    def test_kokkos_accessor_defaults_to_active_device(self):
        a = HAMRDataArray.new("x", 8, allocator=Allocator.MALLOC)
        set_active_device(3)
        v = a.get_kokkos_accessible()
        assert v.buffer.device_id == 3


class TestExtensionKernelLaunch:
    def test_sycl_kernel_on_device(self):
        a = HAMRDataArray.new("x", 4, allocator=Allocator.SYCL, device_id=0)
        a.get_data()[:] = 2.0
        out = HAMRDataArray.new("y", 4, allocator=Allocator.SYCL, device_id=0)
        launch(
            lambda x, y: np.multiply(x, 3.0, out=y),
            reads=[a.buffer], writes=[out.buffer], device_id=0,
        )
        np.testing.assert_array_equal(out.get_data(), [6.0] * 4)

    def test_kokkos_kernel_on_host(self):
        """Kokkos host backend: the same kernel API on the CPU."""
        a = HAMRDataArray.new("x", 4, allocator=Allocator.MALLOC)
        a.get_data()[:] = 1.0
        launch(
            lambda x: None, reads=[a.buffer], device_id=HOST_DEVICE_ID,
        )
