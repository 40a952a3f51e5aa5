"""Tests for managed buffers: allocation, zero-copy wrap, life cycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceOutOfMemoryError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock, set_active_device
from repro.hamr.stream import Stream, StreamMode
from repro.hw.node import VirtualNode, get_node, set_node
from repro.units import MiB
from tests.support import small_node_spec


class TestAllocate:
    def test_host_allocation(self):
        b = Buffer.allocate(100, np.float64, Allocator.MALLOC)
        assert b.on_host
        assert b.device_id == HOST_DEVICE_ID
        assert b.size == 100
        assert b.nbytes == 800

    def test_device_allocation_uses_active_device(self):
        set_active_device(2)
        b = Buffer.allocate(10, np.float32, Allocator.CUDA)
        assert b.device_id == 2
        assert not b.on_host

    def test_explicit_device_overrides_active(self):
        set_active_device(0)
        b = Buffer.allocate(10, np.float64, Allocator.HIP, device_id=3)
        assert b.device_id == 3

    def test_device_allocation_claims_memory(self):
        node = get_node()
        before = node.devices[1]._mem_used
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=1)
        assert node.devices[1]._mem_used == before + b.nbytes

    def test_pinned_host_memory_accounted_on_host(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA_HOST)
        assert b.on_host
        assert node.host._mem_used == b.nbytes
        assert all(d._mem_used == 0 for d in node.devices)

    def test_oom_propagates(self):
        set_node(VirtualNode(small_node_spec(mem_capacity=MiB)))
        with pytest.raises(DeviceOutOfMemoryError):
            Buffer.allocate(MiB, np.float64, Allocator.CUDA, device_id=0)

    def test_negative_size_rejected(self):
        with pytest.raises(AllocationError):
            Buffer.allocate(-5, np.float64, Allocator.MALLOC)

    def test_zero_size_allowed(self):
        b = Buffer.allocate(0, np.float64, Allocator.MALLOC)
        assert b.size == 0

    def test_sync_allocation_advances_clock(self):
        t0 = current_clock().now
        Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0,
                        stream_mode=StreamMode.SYNC)
        assert current_clock().now > t0

    def test_async_allocation_does_not_advance_clock(self):
        t0 = current_clock().now
        b = Buffer.allocate(
            1000, np.float64, Allocator.CUDA_ASYNC, device_id=0,
            stream_mode=StreamMode.ASYNC,
        )
        assert current_clock().now == t0
        assert b.ready_at > t0


class TestWrap:
    def test_zero_copy_aliases_storage(self):
        """Paper Listing 1: the HDA shares the simulation's pointer."""
        ext = np.full(64, -3.14)
        b = Buffer.wrap(ext, Allocator.OPENMP, device_id=1)
        assert b.data is not None
        ext[0] = 42.0
        assert b.data[0] == 42.0  # same memory, no deep copy

    def test_wrap_does_not_claim_memory(self):
        node = get_node()
        ext = np.zeros(1000)
        Buffer.wrap(ext, Allocator.CUDA, device_id=0)
        assert node.devices[0]._mem_used == 0

    def test_deleter_called_on_free(self):
        """Raw-pointer hand-off: the user-provided deleter runs at free."""
        calls = []
        ext = np.zeros(8)
        b = Buffer.wrap(ext, Allocator.CUDA, device_id=0, deleter=lambda: calls.append(1))
        b.free()
        assert calls == [1]

    def test_owner_kept_alive(self):
        class Owner:
            pass

        o = Owner()
        b = Buffer.wrap(np.zeros(4), Allocator.MALLOC, owner=o)
        assert b._owner is o

    def test_wrap_flattens_multidimensional(self):
        b = Buffer.wrap(np.zeros((4, 4)), Allocator.MALLOC)
        assert b.size == 16


class TestAccessibility:
    def test_host_buffer_host_accessible(self):
        b = Buffer.allocate(8, np.float64, Allocator.MALLOC)
        assert b.host_accessible()
        assert b.device_accessible(HOST_DEVICE_ID)
        assert not b.device_accessible(0)

    def test_device_buffer_only_on_its_device(self):
        b = Buffer.allocate(8, np.float64, Allocator.CUDA, device_id=1)
        assert b.device_accessible(1)
        assert not b.device_accessible(0)
        assert not b.host_accessible()

    def test_uva_accessible_everywhere(self):
        b = Buffer.allocate(8, np.float64, Allocator.CUDA_UVA, device_id=0)
        assert b.host_accessible()
        assert b.device_accessible(0)
        assert b.device_accessible(3)

    def test_pinned_host_accessible_from_devices(self):
        b = Buffer.allocate(8, np.float64, Allocator.CUDA_HOST)
        assert b.host_accessible()
        assert b.device_accessible(2)


class TestLifeCycle:
    def test_free_releases_memory(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0)
        b.free()
        assert node.devices[0]._mem_used == 0

    def test_free_is_idempotent(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0)
        b.free()
        b.free()
        assert node.devices[0]._mem_used == 0

    def test_data_after_free_raises(self):
        b = Buffer.allocate(8, np.float64, Allocator.MALLOC)
        b.free()
        with pytest.raises(AllocationError):
            _ = b.data

    def test_fill_sets_values_and_marks_pending(self):
        b = Buffer.allocate(16, np.float64, Allocator.CUDA, device_id=0,
                            stream_mode=StreamMode.ASYNC)
        r0 = b.ready_at
        b.fill(7.5)
        assert np.all(b.data == 7.5)
        assert b.ready_at > r0

    def test_synchronize_advances_clock_to_ready(self):
        b = Buffer.allocate(
            1000, np.float64, Allocator.CUDA_ASYNC, device_id=0,
            stream_mode=StreamMode.ASYNC,
        )
        b.fill(1.0)
        t = b.synchronize()
        assert t >= b.ready_at
        assert current_clock().now == t
