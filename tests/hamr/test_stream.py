"""Tests for svtkStream / svtkStreamMode semantics."""

from __future__ import annotations

import pytest

import numpy as np

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.pool import pool_for
from repro.hamr.stream import Stream, StreamMode, copy_stream, default_stream
from repro.hw.clock import EventCategory, SimClock
from repro.hw.node import VirtualNode, get_node, set_node


class TestEnqueue:
    def test_sync_mode_blocks_clock(self):
        clk = SimClock()
        s = Stream(device_id=0)
        ev = s.enqueue(clk, 1.0, mode=StreamMode.SYNC)
        assert clk.now == ev.end == 1.0

    def test_async_mode_returns_immediately(self):
        clk = SimClock()
        s = Stream(device_id=0)
        ev = s.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        assert clk.now == 0.0
        assert ev.end == 1.0

    def test_async_then_synchronize_joins(self):
        clk = SimClock()
        s = Stream(device_id=0)
        s.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        s.enqueue(clk, 2.0, mode=StreamMode.ASYNC)
        s.synchronize(clk)
        assert clk.now == 3.0

    def test_stream_serializes_operations(self):
        clk = SimClock()
        s = Stream(device_id=0)
        a = s.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        b = s.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        assert b.start == a.end

    def test_independent_streams_overlap(self):
        clk = SimClock()
        s1, s2 = Stream(device_id=0), Stream(device_id=0)
        a = s1.enqueue(clk, 5.0, mode=StreamMode.ASYNC)
        b = s2.enqueue(clk, 5.0, mode=StreamMode.ASYNC)
        assert a.start < b.end and b.start < a.end

    def test_after_dependency(self):
        clk = SimClock()
        s = Stream(device_id=0)
        ev = s.enqueue(clk, 1.0, mode=StreamMode.ASYNC, after=10.0)
        assert ev.start == 10.0

    def test_overlap_enables_speedup(self):
        """The point of async mode: overlap two 1s ops in 1s total."""
        clk = SimClock()
        s1, s2 = Stream(device_id=0), Stream(device_id=1)
        s1.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        s2.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        s1.synchronize(clk)
        s2.synchronize(clk)
        assert clk.now == pytest.approx(1.0)


class TestNativeInterchange:
    def test_round_trip_preserves_identity(self):
        s = Stream(device_id=2, pm=PMKind.CUDA)
        h = s.to_native(PMKind.CUDA)
        assert Stream.from_native(PMKind.CUDA, h) is s

    def test_cross_pm_conversion(self):
        """svtkStream converts between PM-native stream types (paper S2)."""
        s = Stream(device_id=0, pm=PMKind.CUDA)
        h = s.to_native(PMKind.OPENMP)
        assert Stream.from_native(PMKind.OPENMP, h) is s

    def test_adopting_foreign_handle(self):
        s = Stream.from_native(PMKind.HIP, 987654, device_id=1)
        assert s.device_id == 1
        assert Stream.from_native(PMKind.HIP, 987654) is s

    def test_distinct_streams_distinct_handles(self):
        a, b = Stream(device_id=0), Stream(device_id=0)
        assert a.to_native() != b.to_native()

    def test_adopted_handle_is_never_issued_again(self):
        """Regression: the handle counter knew nothing of adopted
        handles, so it issued 3 again and the new stream took the
        table entry — work ordered on ``ext`` landed on a stranger."""
        ext = Stream.from_native(PMKind.CUDA, 3)
        made = [Stream(), Stream(), Stream()]
        assert 3 not in [s.to_native() for s in made]
        assert Stream.from_native(PMKind.CUDA, 3) is ext


class TestDefaultStream:
    def test_per_device_singleton(self):
        assert default_stream(0) is default_stream(0)
        assert default_stream(0) is not default_stream(1)

    def test_host_default_stream(self):
        s = default_stream(HOST_DEVICE_ID)
        assert s.device_id == HOST_DEVICE_ID

    @pytest.mark.parametrize("device_id", [HOST_DEVICE_ID, 0, 3])
    def test_default_and_copy_streams_are_the_resource_lanes(self, device_id):
        r = get_node().resource(device_id)
        assert default_stream(device_id).timeline is r.timeline
        assert copy_stream(device_id).timeline is r.copy_timeline
        assert r.lanes == [r.timeline, r.copy_timeline]

    def test_explicit_stream_is_an_extra_lane(self):
        """Its work is on the node's ledger, and the default lanes'
        cursors — which simulated numbers depend on — never move."""
        r = get_node().resource(1)
        s = Stream(device_id=1)
        ev = s.enqueue(SimClock(), 2.0, mode=StreamMode.ASYNC)
        assert r.lanes == [r.timeline, r.copy_timeline, s.timeline]
        assert r.timeline.available_at == r.copy_timeline.available_at == 0.0
        assert ev in [e for tl in get_node().timelines() for e in tl.events]

    def test_a_fresh_node_has_fresh_streams_and_pools(self):
        """Installing a node is the whole reset: no stream cursor and
        no pooled block survives it."""
        for _ in range(2):
            set_node(VirtualNode())
            clk = SimClock()
            b = Buffer.allocate(
                512, np.float64, Allocator.CUDA_ASYNC, device_id=0, clock=clk
            )
            (alloc,) = default_stream(0).timeline.events
            assert alloc.start == 0.0
            pool = pool_for(get_node().resource(0))
            assert (pool.hits, pool.misses) == (0, 1)
            b.free(clock=clk)
            assert pool.pooled_bytes == b.nbytes

    def test_synchronize_records_sync_event(self):
        clk = SimClock()
        s = Stream(device_id=0)
        s.enqueue(clk, 1.0, mode=StreamMode.ASYNC)
        s.synchronize(clk)
        cats = [e.category for e in s.timeline.events]
        assert EventCategory.SYNC in cats
