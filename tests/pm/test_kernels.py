"""Tests for kernel launch on virtual devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InteropError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import Stream, StreamMode
from repro.hamr.view import accessible_view
from repro.hw.node import get_node
from repro.pm.kernels import KernelCost, launch


def _dev_buffer(values, device_id=0, alloc=Allocator.CUDA):
    b = Buffer.allocate(len(values), np.float64, alloc, device_id=device_id)
    b.data[:] = values
    return b


class TestLaunch:
    def test_executes_real_numerics(self):
        a = _dev_buffer([1.0, 2.0, 3.0])
        out = Buffer.allocate(3, np.float64, Allocator.CUDA, device_id=0)
        launch(
            lambda x, y: np.multiply(x, 2.0, out=y),
            reads=[a], writes=[out], device_id=0,
        )
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])

    def test_sync_launch_blocks_clock(self):
        a = _dev_buffer([0.0] * 100)
        t0 = current_clock().now
        launch(lambda x: None, reads=[a], device_id=0, flops=1e9,
               mode=StreamMode.SYNC)
        assert current_clock().now > t0

    def test_async_launch_returns_immediately(self):
        a = _dev_buffer([0.0] * 100)
        t0 = current_clock().now
        ev = launch(lambda x: None, reads=[a], device_id=0, flops=1e9,
                    mode=StreamMode.ASYNC)
        assert current_clock().now == t0
        assert ev.end > t0

    def test_writes_carry_pending_event(self):
        out = Buffer.allocate(4, np.float64, Allocator.CUDA, device_id=0)
        ev = launch(lambda y: None, writes=[out], device_id=0, flops=1e9,
                    mode=StreamMode.ASYNC)
        assert out.ready_at == ev.end

    def test_kernel_waits_for_operands(self):
        a = Buffer.allocate(
            1000, np.float64, Allocator.CUDA_ASYNC, device_id=0,
            stream_mode=StreamMode.ASYNC,
        )
        a.fill(1.0)
        ready = a.ready_at
        ev = launch(lambda x: None, reads=[a], device_id=0,
                    mode=StreamMode.ASYNC)
        assert ev.start >= ready

    def test_host_launch_uses_cores(self):
        a = Buffer.wrap(np.zeros(10), Allocator.MALLOC)
        e1 = launch(lambda x: None, reads=[a], device_id=HOST_DEVICE_ID,
                    flops=1e10, cores=1, mode=StreamMode.ASYNC,
                    stream=Stream(device_id=HOST_DEVICE_ID))
        e64 = launch(lambda x: None, reads=[a], device_id=HOST_DEVICE_ID,
                     flops=1e10, cores=64, mode=StreamMode.ASYNC,
                     stream=Stream(device_id=HOST_DEVICE_ID))
        assert e64.duration < e1.duration

    def test_device_timeline_reflects_kernels(self):
        node = get_node()
        a = _dev_buffer([0.0], device_id=2)
        launch(lambda x: None, reads=[a], device_id=2, flops=1e9)
        assert node.devices[2].timeline.available_at > 0


class TestPMLaunch:
    """``launch`` refuses any operand it cannot address where it runs."""

    def test_pm_launch_checks_accessibility(self):
        """A kernel reads and writes only memory accessible where it runs."""
        dev0 = _dev_buffer([1.0], device_id=0)
        host = Buffer.wrap(np.zeros(1), Allocator.MALLOC)
        cases = [
            ({"reads": [dev0]}, 1, "read on another device"),
            ({"writes": [dev0]}, 1, "write on another device"),
            ({"reads": [dev0]}, HOST_DEVICE_ID, "device data, host kernel"),
            ({"writes": [host]}, 0, "host data, device kernel"),
        ]
        ready = dev0.ready_at
        for operands, device_id, case in cases:
            with pytest.raises(InteropError, match="accessible view"):
                launch(lambda x: None, device_id=device_id, **operands)
            assert dev0.ready_at == ready, case  # nothing was scheduled

    def test_pm_launch_with_staged_view(self):
        """The paper's pattern: stage via the access API, then launch."""
        a = _dev_buffer([1.0, 2.0], device_id=0)
        v = accessible_view(a, PMKind.CUDA, 1)
        out = Buffer.allocate(2, np.float64, Allocator.CUDA, device_id=1)
        launch(
            lambda x, y: np.add(x, x, out=y),
            reads=[v.buffer], writes=[out], device_id=1,
        )
        np.testing.assert_array_equal(out.data, [2.0, 4.0])

    def test_uva_buffer_launchable_anywhere(self):
        """Managed and pinned memory need no view on any device."""
        uva = Buffer.allocate(2, np.float64, Allocator.CUDA_UVA, device_id=0)
        pinned = Buffer.allocate(2, np.float64, Allocator.CUDA_HOST)
        for b in (uva, pinned):
            b.fill(1.0)
            for device_id in (HOST_DEVICE_ID, 0, 3):
                launch(lambda x: None, reads=[b], device_id=device_id)
                launch(lambda y: None, writes=[b], device_id=device_id)


class TestKernelCost:
    def test_addition_combines_flops_and_bytes(self):
        a = KernelCost(flops=10, bytes_moved=100, atomic_fraction=0.0)
        b = KernelCost(flops=20, bytes_moved=300, atomic_fraction=1.0)
        c = a + b
        assert c.flops == 30
        assert c.bytes_moved == 400
        assert c.atomic_fraction == pytest.approx(300 / 400)

    def test_addition_of_empty_costs(self):
        z = KernelCost() + KernelCost()
        assert z.flops == 0
        assert z.atomic_fraction == 0.0
