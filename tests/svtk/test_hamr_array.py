"""Tests for svtkHAMRDataArray — the paper's data-model extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, UninitializedArrayError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.runtime import current_clock, set_active_device
from repro.hamr.stream import Stream, StreamMode, default_stream
from repro.hw.node import get_node
from repro.svtk.hamr_array import HAMRDataArray, HAMRDoubleArray


class TestConstruction:
    def test_new_host_array(self):
        a = HAMRDataArray.new("x", 100, allocator=Allocator.MALLOC)
        assert a.n_tuples == 100
        assert a.on_host

    def test_new_device_array_on_active_device(self):
        set_active_device(3)
        a = HAMRDataArray.new("x", 10, allocator=Allocator.CUDA)
        assert a.device_id == 3

    def test_new_multicomponent(self):
        a = HAMRDataArray.new("v", 10, n_components=3, allocator=Allocator.MALLOC)
        assert a.n_tuples == 10
        assert a.n_values == 30

    def test_default_constructed_then_initialize(self):
        """Paper S2: APIs exist to initialize a default constructed instance."""
        a = HAMRDataArray("deferred")
        with pytest.raises(UninitializedArrayError):
            _ = a.n_tuples
        a.initialize(5, allocator=Allocator.HIP, device_id=1)
        assert a.n_tuples == 5
        assert a.device_id == 1

    def test_double_initialize_rejected(self):
        a = HAMRDataArray.new("x", 5)
        with pytest.raises(UninitializedArrayError):
            a.initialize(5)

    def test_use_before_initialize_raises(self):
        a = HAMRDataArray("empty")
        with pytest.raises(UninitializedArrayError):
            _ = a.n_tuples
        with pytest.raises(UninitializedArrayError):
            a.get_host_accessible()

    def test_typed_subclasses_pin_dtype(self):
        assert HAMRDoubleArray.new("d", 4).dtype == np.float64

    def test_typed_subclass_rejects_wrong_dtype(self):
        with pytest.raises(ShapeMismatchError):
            HAMRDoubleArray.new("d", 4, dtype=np.float32)
        with pytest.raises(ShapeMismatchError):
            HAMRDoubleArray.zero_copy("d", np.zeros(4, dtype=np.float32))


class TestZeroCopy:
    def test_listing1_pattern(self):
        """The paper's Listing 1: device data packaged for zero-copy."""
        dev_id = 1
        set_active_device(dev_id)
        n = 64
        # "allocate device memory" + "initialize the array on the device"
        dev_ptr = np.full(n, -3.14)
        # "zero-copy construct with coordinated life cycle management"
        freed = []
        sim_data = HAMRDoubleArray.zero_copy(
            "simData", dev_ptr, 1,
            allocator=Allocator.OPENMP,
            stream=default_stream(dev_id),
            stream_mode=StreamMode.ASYNC,
            device_id=dev_id,
            deleter=lambda: freed.append(True),
        )
        assert sim_data.device_id == dev_id
        assert sim_data.allocator is Allocator.OPENMP
        # Zero copy: the HDA sees writes through the simulation's pointer.
        dev_ptr[0] = 1.0
        assert sim_data.get_data()[0] == 1.0
        # "free up the container" — deleter coordinates the life cycle.
        sim_data.delete()
        assert freed == [True]

    def test_zero_copy_component_divisibility(self):
        with pytest.raises(ShapeMismatchError):
            HAMRDataArray.zero_copy("v", np.zeros(7), n_components=3)

    def test_zero_copy_no_simulated_cost(self):
        t0 = current_clock().now
        HAMRDataArray.zero_copy("x", np.zeros(1_000_000), allocator=Allocator.MALLOC)
        assert current_clock().now == t0


class TestAgnosticAccess:
    def test_host_to_host_in_place(self):
        a = HAMRDataArray.new("x", 8, allocator=Allocator.MALLOC)
        v = a.get_host_accessible()
        assert not v.is_temporary

    def test_device_to_host_moves(self):
        a = HAMRDataArray.new("x", 8, allocator=Allocator.CUDA, device_id=0)
        a.fill(2.5)
        v = a.get_host_accessible()
        assert v.is_temporary
        a.synchronize()
        np.testing.assert_array_equal(v.get(), [2.5] * 8)

    def test_cuda_accessible_cross_device(self):
        """Listing 3: data from devices 0/1 consumed by CUDA on device 2."""
        a1 = HAMRDataArray.new("a1", 4, allocator=Allocator.MALLOC)
        a1.get_data()[:] = 1.0
        a2 = HAMRDataArray.new("a2", 4, allocator=Allocator.OPENMP, device_id=1)
        a2.get_data()[:] = 2.0
        set_active_device(2)
        v1 = a1.get_cuda_accessible()
        v2 = a2.get_cuda_accessible()
        assert v1.is_temporary and v2.is_temporary
        assert v1.buffer.device_id == 2
        assert v2.buffer.device_id == 2
        a1.synchronize()
        a2.synchronize()
        out = v1.get() + v2.get()
        np.testing.assert_array_equal(out, [3.0] * 4)

    def test_openmp_and_hip_accessors(self):
        a = HAMRDataArray.new("x", 4, allocator=Allocator.CUDA, device_id=0)
        assert not a.get_openmp_accessible(device_id=0).is_temporary
        assert a.get_hip_accessible(device_id=1).is_temporary

    def test_same_pm_same_device_direct(self):
        a = HAMRDataArray.new("x", 4, allocator=Allocator.CUDA, device_id=2)
        v = a.get_cuda_accessible(device_id=2)
        assert not v.is_temporary
        assert v.get() is a.get_data()

    def test_temporary_cleanup_releases_device_memory(self):
        node = get_node()
        a = HAMRDataArray.new("x", 1000, allocator=Allocator.MALLOC)
        v = a.get_cuda_accessible(device_id=1)
        assert node.devices[1]._mem_used > 0
        v.release()
        assert node.devices[1]._mem_used == 0

    def test_accessor_defaults_to_active_device(self):
        a = HAMRDataArray.new("x", 4, allocator=Allocator.MALLOC)
        set_active_device(2)
        v = a.get_cuda_accessible()
        assert v.buffer.device_id == 2


class TestOperations:
    def test_fill_and_get_data(self):
        a = HAMRDataArray.new("x", 4, allocator=Allocator.CUDA, device_id=0)
        a.fill(-3.14)
        np.testing.assert_array_equal(a.get_data(), [-3.14] * 4)

    def test_synchronize_joins_async_work(self):
        s = Stream(device_id=0)
        a = HAMRDataArray.new(
            "x", 1000, allocator=Allocator.CUDA_ASYNC,
            stream=s, stream_mode=StreamMode.ASYNC, device_id=0,
        )
        a.fill(1.0)
        assert current_clock().now < a.buffer.ready_at
        a.synchronize()
        assert current_clock().now >= a.buffer.ready_at

    def test_delete_frees_owned_memory(self):
        node = get_node()
        a = HAMRDataArray.new("x", 1000, allocator=Allocator.CUDA, device_id=0)
        a.delete()
        assert node.devices[0]._mem_used == 0
        with pytest.raises(UninitializedArrayError):
            _ = a.n_tuples

    def test_delete_idempotent(self):
        a = HAMRDataArray.new("x", 10)
        a.delete()
        a.delete()

    def test_as_numpy_host_shape(self):
        a = HAMRDataArray.new("v", 5, n_components=3, allocator=Allocator.MALLOC)
        a.fill(1.0)
        m = a.as_numpy_host()
        assert m.shape == (5, 3)
