"""Tests for the data-movement engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.copier import transfer, transfer_duration
from repro.hamr.runtime import current_clock
from repro.hamr.stream import StreamMode
from repro.units import MB


def _host_buffer(values):
    b = Buffer.wrap(np.asarray(values, dtype=np.float64), Allocator.MALLOC)
    return b


class TestTransfer:
    def test_h2d_preserves_contents(self):
        src = _host_buffer([1.0, 2.0, 3.0])
        dst = transfer(src, 0, pm=PMKind.CUDA)
        assert dst.device_id == 0
        assert not dst.on_host
        np.testing.assert_array_equal(dst.data, [1.0, 2.0, 3.0])

    def test_d2h_preserves_contents(self):
        src = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=1)
        src.fill(9.0)
        dst = transfer(src, HOST_DEVICE_ID, pm=PMKind.HOST)
        assert dst.on_host
        np.testing.assert_array_equal(dst.data, [9.0] * 4)

    def test_d2d_preserves_contents(self):
        src = Buffer.allocate(4, np.float64, Allocator.HIP, device_id=0)
        src.fill(5.0)
        dst = transfer(src, 2, pm=PMKind.HIP)
        assert dst.device_id == 2
        np.testing.assert_array_equal(dst.data, [5.0] * 4)

    def test_transfer_is_deep_copy(self):
        src = _host_buffer([1.0, 2.0])
        dst = transfer(src, HOST_DEVICE_ID, pm=PMKind.HOST)
        src.data[0] = 99.0
        assert dst.data[0] == 1.0

    def test_allocator_defaults_to_pm_natural(self):
        src = _host_buffer([0.0])
        assert transfer(src, 0, pm=PMKind.CUDA).allocator is Allocator.CUDA
        assert transfer(src, 0, pm=PMKind.OPENMP).allocator is Allocator.OPENMP
        assert (
            transfer(src, HOST_DEVICE_ID, pm=PMKind.HOST).allocator
            is Allocator.MALLOC
        )

    def test_sync_transfer_advances_clock(self):
        src = _host_buffer(np.zeros(1000))
        t0 = current_clock().now
        transfer(src, 0, pm=PMKind.CUDA, mode=StreamMode.SYNC)
        assert current_clock().now > t0

    def test_async_transfer_pends_on_both_buffers(self):
        src = _host_buffer(np.zeros(1000))
        t0 = current_clock().now
        dst = transfer(src, 0, pm=PMKind.CUDA, mode=StreamMode.ASYNC)
        assert current_clock().now == t0
        assert dst.ready_at > t0
        assert src.ready_at >= dst.ready_at  # source synchronize sees the move

    def test_copy_ordered_after_source_ready(self):
        src = Buffer.allocate(
            1000, np.float64, Allocator.CUDA_ASYNC, device_id=0,
            stream_mode=StreamMode.ASYNC,
        )
        src.fill(3.0)
        ready = src.ready_at
        dst = transfer(src, HOST_DEVICE_ID, pm=PMKind.HOST, mode=StreamMode.ASYNC)
        assert dst.ready_at > ready


class TestDurations:
    def test_same_space_deep_copy_costs_bandwidth(self):
        d = transfer_duration(100 * MB, 0, 0)
        assert d > 0.0

    def test_d2d_cheaper_than_h2d(self):
        assert transfer_duration(100 * MB, 0, 1) < transfer_duration(100 * MB, -1, 1)

    def test_pinned_cheaper(self):
        assert transfer_duration(100 * MB, -1, 0, pinned=True) < transfer_duration(
            100 * MB, -1, 0, pinned=False
        )


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=64,
    ),
    path=st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=5),
)
def test_round_trip_through_any_device_path(values, path):
    """Property: moving data along any chain of spaces preserves it."""
    # Note: global node has 4 devices; -1 is the host.
    buf = _host_buffer(values)
    for dev in path:
        pm = PMKind.HOST if dev == HOST_DEVICE_ID else PMKind.CUDA
        buf = transfer(buf, dev, pm=pm)
    back = transfer(buf, HOST_DEVICE_ID, pm=PMKind.HOST)
    back.synchronize()
    np.testing.assert_array_equal(back.data, np.asarray(values))
