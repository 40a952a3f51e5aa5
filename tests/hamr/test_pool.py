"""Tests for the stream-ordered memory pool (cudaMallocAsync semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.hamr.allocator import Allocator
from repro.hamr.buffer import Buffer
from repro.hamr.pool import MemoryPool, pool_for
from repro.hamr.runtime import current_clock
from repro.hw.node import VirtualNode, get_node, set_node
from repro.units import KiB, MiB
from tests.support import small_node_spec


class TestMemoryPool:
    def test_miss_claims_then_hit_reuses(self):
        dev = get_node().devices[0]
        pool = pool_for(dev)
        assert pool.acquire(1024) is False  # miss: fresh claim
        assert dev._mem_used == 1024
        pool.release(1024)
        assert dev._mem_used == 1024  # footprint retained
        assert pool.pooled_bytes == 1024
        assert pool.acquire(1024) is True  # hit
        assert pool.pooled_bytes == 0
        assert dev._mem_used == 1024

    def test_size_buckets_are_exact(self):
        dev = get_node().devices[0]
        pool = pool_for(dev)
        pool.acquire(512)
        pool.release(512)
        assert pool.acquire(1024) is False  # different size: miss

    def test_hit_miss_counters(self):
        pool = pool_for(get_node().devices[1])
        pool.acquire(64)
        pool.release(64)
        pool.acquire(64)
        assert pool.hits == 1
        assert pool.misses == 1

    def test_pool_per_resource(self):
        node = get_node()
        assert pool_for(node.devices[0]) is pool_for(node.devices[0])
        assert pool_for(node.devices[0]) is not pool_for(node.devices[1])

    def test_pool_lives_and_dies_with_its_resource(self):
        """Regression: a registry keyed by id(resource) aliased pools
        after GC — a new resource allocated at a collected one's id
        silently inherited its pool (and its buckets).  The pool is an
        attribute of the resource now: it cannot outlive it, nothing
        else pins either, and no reset call is needed to release them.
        """
        import gc
        import weakref

        from repro.hw.device import VirtualDevice

        dev = VirtualDevice(device_id=7, spec=small_node_spec().device)
        pool = pool_for(dev)
        ref = weakref.ref(dev)
        del dev
        gc.collect()
        assert ref() is not None, "a live pool keeps its resource"
        assert pool_for(ref()) is pool
        del pool
        gc.collect()
        assert ref() is None, "nothing but the pair pins the pair"

    def test_oom_propagates_through_pool(self):
        set_node(VirtualNode(small_node_spec(mem_capacity=KiB)))
        pool = pool_for(get_node().devices[0])
        with pytest.raises(DeviceOutOfMemoryError):
            pool.acquire(MiB)


class TestBufferPoolIntegration:
    def test_async_free_keeps_footprint(self):
        node = get_node()
        b = Buffer.allocate(128, np.float64, Allocator.CUDA_ASYNC, device_id=0)
        b.free()
        assert node.devices[0]._mem_used == 1024  # pooled, not released
        assert pool_for(node.devices[0]).pooled_bytes == 1024

    def test_sync_free_releases_immediately(self):
        node = get_node()
        b = Buffer.allocate(128, np.float64, Allocator.CUDA, device_id=0)
        b.free()
        assert node.devices[0]._mem_used == 0

    def test_realloc_after_free_is_cheaper(self):
        """The point of stream-ordered allocation: reuse is ~free."""
        clk = current_clock()
        b1 = Buffer.allocate(4096, np.float64, Allocator.CUDA_ASYNC, device_id=0)
        t0 = clk.now
        miss_cost = t0  # first allocation was a pool miss
        b1.free()
        t1 = clk.now
        Buffer.allocate(4096, np.float64, Allocator.CUDA_ASYNC, device_id=0)
        hit_cost = clk.now - t1
        assert hit_cost < miss_cost

    def test_pool_reuse_does_not_double_count(self):
        node = get_node()
        for _ in range(5):
            b = Buffer.allocate(100, np.float64, Allocator.HIP_ASYNC, device_id=2)
            b.free()
        assert node.devices[2]._mem_used == 800  # one block cycling
