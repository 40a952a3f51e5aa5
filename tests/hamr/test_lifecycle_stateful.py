"""Stateful property test of the buffer/view life cycle.

Hypothesis drives random interleavings of the memory-management API —
allocate, wrap, view (any PM, any location), release, free,
synchronize — against a shadow model, checking after every step that:

- simulated memory accounting equals the bytes of live owned
  allocations (wrapped external memory is never accounted);
- data read through any view equals the shadow contents;
- freeing and releasing are idempotent and never corrupt accounting.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import set_active_device, set_current_clock
from repro.hamr.view import accessible_view
from repro.hw.clock import SimClock
from repro.hw.node import VirtualNode, get_node, set_node

DEVICE_ALLOCATORS = [
    Allocator.CUDA,
    Allocator.CUDA_ASYNC,
    Allocator.CUDA_UVA,
    Allocator.HIP,
    Allocator.OPENMP,
    Allocator.SYCL,
    Allocator.KOKKOS,
]
HOST_ALLOCATORS = [Allocator.MALLOC, Allocator.CUDA_HOST, Allocator.SYCL_HOST]
PMS = [PMKind.HOST, PMKind.CUDA, PMKind.HIP, PMKind.OPENMP, PMKind.SYCL]


class BufferLifecycle(RuleBasedStateMachine):
    buffers = Bundle("buffers")
    views = Bundle("views")

    @initialize()
    def setup(self):
        set_node(VirtualNode())
        set_current_clock(SimClock(name="stateful"))
        set_active_device(0)
        self.shadow: dict[int, np.ndarray] = {}  # id(buffer) -> contents
        self.owned: dict[int, int] = {}          # id(buffer) -> nbytes
        self.live_views: list = []

    # -- rules -------------------------------------------------------------------
    @rule(
        target=buffers,
        size=st.integers(1, 200),
        allocator=st.sampled_from(DEVICE_ALLOCATORS + HOST_ALLOCATORS),
        device=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def allocate(self, size, allocator, device, seed):
        dev = HOST_DEVICE_ID if allocator.is_host_resident else device
        buf = Buffer.allocate(size, np.float64, allocator, device_id=dev)
        rng = np.random.default_rng(seed)
        buf.data[:] = rng.normal(size=size)
        self.shadow[id(buf)] = buf.data.copy()
        self.owned[id(buf)] = buf.nbytes
        return buf

    @rule(
        target=buffers,
        size=st.integers(1, 200),
        device=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def wrap_external(self, size, device, seed):
        rng = np.random.default_rng(seed)
        ext = rng.normal(size=size)
        buf = Buffer.wrap(ext, Allocator.OPENMP, device_id=device)
        self.shadow[id(buf)] = ext.copy()
        # wrapped memory is externally owned: not in self.owned
        return buf

    @rule(
        target=views,
        buf=buffers,
        pm=st.sampled_from(PMS),
        device=st.integers(-1, 3),
    )
    def take_view(self, buf, pm, device):
        if buf.freed:
            return None
        if pm is PMKind.HOST:
            device = HOST_DEVICE_ID
        elif device == HOST_DEVICE_ID:
            device = 0
        view = accessible_view(buf, pm, device)
        view.synchronize()
        self.live_views.append((view, id(buf)))
        return (view, id(buf))

    @rule(entry=views)
    def release_view(self, entry):
        if entry is None:
            return
        view, _src = entry
        view.release()
        self.live_views = [(v, s) for v, s in self.live_views if v is not view]

    @rule(buf=buffers)
    def free_buffer(self, buf):
        # Only free buffers with no outstanding in-place views; a real
        # consumer holds the shared owner alive (we model the contract).
        if any(
            s == id(buf) and not v.is_temporary and v._released is False
            for v, s in self.live_views
        ):
            return
        buf.free()
        self.owned.pop(id(buf), None)
        self.shadow.pop(id(buf), None)

    @rule(buf=buffers)
    def synchronize(self, buf):
        if not buf.freed:
            buf.synchronize()

    # -- invariants ----------------------------------------------------------------
    @invariant()
    def memory_accounting_matches_live_buffers(self):
        from repro.hamr.pool import pool_for

        node = get_node()
        used = sum(r._mem_used for r in node.iter_resources())
        owned = sum(self.owned.values())
        temps = sum(
            v.buffer.nbytes
            for v, _ in self.live_views
            if v.is_temporary and not v._released
        )
        # Stream-ordered (pool) frees keep their footprint on the device
        # until trimmed.
        pooled = sum(
            pool_for(r).pooled_bytes for r in node.iter_resources()
        )
        assert used == owned + temps + pooled, (used, owned, temps, pooled)

    @invariant()
    def views_reflect_shadow_contents(self):
        for view, src in self.live_views:
            if view._released or src not in self.shadow:
                continue
            np.testing.assert_array_equal(view.get(), self.shadow[src])

    @invariant()
    def no_negative_memory(self):
        for r in get_node().iter_resources():
            assert 0 <= r._mem_used <= r.mem_capacity


BufferLifecycle.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestBufferLifecycle = BufferLifecycle.TestCase
