"""Tests for node topology and process-global system queries."""

from __future__ import annotations

import pytest

from repro.errors import LocationError
from repro.hw.node import (
    VirtualNode,
    get_node,
    num_devices,
    reset_node,
    set_node,
)
from repro.hw.spec import NodeSpec
from repro.units import MB
from tests.support import small_node_spec


class TestVirtualNode:
    def test_default_is_perlmutter_like(self):
        node = VirtualNode()
        assert node.num_devices == 4
        assert node.host.spec.cores == 64

    def test_with_devices(self):
        node = VirtualNode(NodeSpec().with_devices(2))
        assert node.num_devices == 2

    def test_with_devices_rejects_negative(self):
        with pytest.raises(ValueError):
            NodeSpec().with_devices(-1)

    def test_device_lookup(self):
        node = VirtualNode()
        assert node.device(3).device_id == 3

    def test_device_lookup_out_of_range(self):
        node = VirtualNode()
        with pytest.raises(LocationError):
            node.device(4)

    def test_resource_negative_is_host(self):
        node = VirtualNode()
        assert node.resource(-1) is node.host
        assert node.resource(0) is node.devices[0]

    def test_iter_resources(self):
        node = VirtualNode()
        rs = list(node.iter_resources())
        assert rs[0] is node.host
        assert len(rs) == 5


class TestTransferTime:
    def test_same_space_is_free(self):
        node = VirtualNode()
        assert node.transfer_time(MB, 0, 0) == 0.0
        assert node.transfer_time(MB, -1, -1) == 0.0

    def test_h2d_and_d2h_symmetric_by_default(self):
        node = VirtualNode()
        assert node.transfer_time(MB, -1, 0) == pytest.approx(
            node.transfer_time(MB, 0, -1)
        )

    def test_d2d_faster_than_h2d(self):
        node = VirtualNode()
        big = 100 * MB
        assert node.transfer_time(big, 0, 1) < node.transfer_time(big, -1, 0)

    def test_pinned_speedup(self):
        node = VirtualNode()
        big = 100 * MB
        assert node.transfer_time(big, -1, 0, pinned=True) < node.transfer_time(
            big, -1, 0, pinned=False
        )

    def test_latency_floor(self):
        node = VirtualNode()
        assert node.transfer_time(1, -1, 0) >= node.spec.link.latency


class TestGlobalNode:
    def test_lazy_default(self):
        reset_node()
        assert num_devices() == 4

    def test_set_node(self):
        node = VirtualNode(small_node_spec(num_devices=2))
        set_node(node)
        assert get_node() is node
        assert num_devices() == 2

    def test_set_and_reset_seen_from_another_thread(self):
        """``get_node`` reads the slot without the lock: a node installed
        or discarded on one thread is what any thread sees next."""
        import threading

        def from_thread():
            out = []
            t = threading.Thread(target=lambda: out.append(get_node()))
            t.start()
            t.join()
            return out[0]

        node = VirtualNode(small_node_spec(num_devices=2))
        set_node(node)
        assert get_node() is node
        assert from_thread() is node
        reset_node()
        fresh = from_thread()
        assert fresh is not node and fresh.num_devices == 4
        assert get_node() is fresh
        other = VirtualNode(small_node_spec(num_devices=1))
        set_node(other)
        assert from_thread() is other
        reset_node()
        fresh = get_node()
        assert fresh is not other and from_thread() is fresh
