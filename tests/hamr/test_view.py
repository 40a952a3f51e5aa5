"""Tests for shared views and the location/PM-agnostic access core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import StreamMode
from repro.hamr.view import SharedView, accessible_view
from repro.hw.node import get_node


class TestInPlaceAccess:
    def test_host_buffer_from_host_is_zero_copy(self):
        b = Buffer.wrap(np.array([1.0, 2.0]), Allocator.MALLOC)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        assert not v.is_temporary
        assert v.get() is b.data  # no additional work is done

    def test_device_buffer_from_same_device_is_zero_copy(self):
        b = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=2)
        v = accessible_view(b, PMKind.CUDA, 2)
        assert not v.is_temporary

    def test_cross_pm_same_location_is_zero_copy(self):
        """OpenMP-managed data read by CUDA code on the same device."""
        b = Buffer.allocate(4, np.float64, Allocator.OPENMP, device_id=1)
        v = accessible_view(b, PMKind.CUDA, 1)
        assert not v.is_temporary

    def test_uva_zero_copy_from_anywhere(self):
        b = Buffer.allocate(4, np.float64, Allocator.CUDA_UVA, device_id=0)
        assert not accessible_view(b, PMKind.HOST, HOST_DEVICE_ID).is_temporary
        assert not accessible_view(b, PMKind.CUDA, 3).is_temporary

    def test_zero_copy_access_costs_no_simulated_time(self):
        b = Buffer.wrap(np.zeros(1_000_000), Allocator.MALLOC)
        t0 = current_clock().now
        accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        assert current_clock().now == t0


class TestTemporaryAccess:
    def test_device_to_host_makes_temporary(self):
        b = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=0)
        b.fill(3.0)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        assert v.is_temporary
        v.synchronize()
        np.testing.assert_array_equal(v.get(), [3.0] * 4)

    def test_cross_device_makes_temporary(self):
        b = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=0)
        v = accessible_view(b, PMKind.CUDA, 1)
        assert v.is_temporary
        assert v.buffer.device_id == 1

    def test_temporary_freed_on_release(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0)
        v = accessible_view(b, PMKind.CUDA, 1)
        used = node.devices[1]._mem_used
        assert used > 0
        v.release()
        assert node.devices[1]._mem_used == 0

    def test_context_manager_releases(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0)
        with accessible_view(b, PMKind.HOST, HOST_DEVICE_ID) as v:
            assert v.get() is not None
        assert node.host._mem_used == 0

    def test_gc_releases_temporary(self):
        node = get_node()
        b = Buffer.allocate(1000, np.float64, Allocator.CUDA, device_id=0)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        del v
        assert node.host._mem_used == 0

    def test_source_synchronize_covers_the_move(self):
        """Paper Listing 3 synchronizes the *source* arrays after access."""
        b = Buffer.allocate(
            1000, np.float64, Allocator.CUDA_ASYNC, device_id=0,
            stream_mode=StreamMode.ASYNC,
        )
        b.fill(1.0)
        v = accessible_view(b, PMKind.CUDA, 1, mode=StreamMode.ASYNC)
        t = b.synchronize()
        assert t >= v.ready_at

    def test_temporary_does_not_alias_source(self):
        b = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=0)
        b.fill(1.0)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        b.data[0] = 42.0
        assert v.get()[0] == 1.0


class TestViewProtocol:
    def test_get_after_release_raises(self):
        b = Buffer.wrap(np.zeros(4), Allocator.MALLOC)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        v.release()
        with pytest.raises(RuntimeError):
            v.get()

    def test_release_idempotent(self):
        b = Buffer.allocate(10, np.float64, Allocator.CUDA, device_id=0)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        v.release()
        v.release()

    def test_len(self):
        b = Buffer.wrap(np.zeros(7), Allocator.MALLOC)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        assert len(v) == 7
        v.release()
        assert len(v) == 0

    def test_in_place_release_does_not_free_source(self):
        b = Buffer.wrap(np.zeros(4), Allocator.MALLOC)
        v = accessible_view(b, PMKind.HOST, HOST_DEVICE_ID)
        v.release()
        assert not b.freed
        assert b.data is not None
