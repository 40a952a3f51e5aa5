"""Tests for placement control and Eq. 1 automatic device selection."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlacementError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hw.node import VirtualNode, set_node
from repro.hw.spec import NodeSpec
from repro.sensei.placement import (
    DevicePlacement,
    PlacementMode,
    select_device,
)


class TestSelectDevice:
    def test_defaults_round_robin(self):
        """With n_u = n_a, s = 1, d_0 = 0: d = r mod n_a."""
        assert [select_device(r, 4) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_offset_shifts(self):
        """d_0 shifts the assignment (dedicated-device configurations)."""
        assert [select_device(r, 4, n_use=1, offset=3) for r in range(4)] == [3] * 4

    def test_stride_spreads(self):
        assert [select_device(r, 8, n_use=4, stride=2) for r in range(4)] == [
            0, 2, 4, 6,
        ]

    def test_wraps_modulo_available(self):
        # (r % 4) * 3 for r=3 -> 9, wraps to 9 % 4 = 1.
        assert select_device(3, 4, n_use=4, stride=3) == 1

    def test_n_use_limits_devices(self):
        devs = {select_device(r, 4, n_use=2) for r in range(100)}
        assert devs == {0, 1}

    def test_paper_formula_exactly(self):
        """Check Eq. 1 literally: d = (r mod n_u * s + d_0) mod n_a."""
        for r in range(16):
            for n_a in (1, 2, 4, 8):
                for n_u in (1, 2, n_a):
                    for s in (1, 2, 3):
                        for d0 in (0, 1, 3):
                            expected = (r % n_u * s + d0) % n_a
                            assert select_device(r, n_a, n_u, s, d0) == expected

    def test_queries_current_node_by_default(self):
        set_node(VirtualNode(NodeSpec().with_devices(2)))
        assert select_device(3) == 1  # 3 mod 2

    def test_invalid_inputs(self):
        with pytest.raises(PlacementError):
            select_device(-1, 4)
        with pytest.raises(PlacementError):
            select_device(0, 0)
        with pytest.raises(PlacementError):
            select_device(0, 4, n_use=0)

    @given(
        r=st.integers(0, 10_000),
        n_a=st.integers(1, 64),
        n_u=st.integers(1, 64),
        s=st.integers(1, 8),
        d0=st.integers(0, 64),
    )
    def test_result_is_always_a_valid_device(self, r, n_a, n_u, s, d0):
        d = select_device(r, n_a, n_u, s, d0)
        assert 0 <= d < n_a


class TestDevicePlacement:
    def test_host(self):
        p = DevicePlacement.host()
        assert p.resolve(rank=5) == HOST_DEVICE_ID

    def test_manual(self):
        p = DevicePlacement.manual(2)
        assert p.resolve(rank=0) == 2
        assert p.resolve(rank=7) == 2

    def test_manual_validates_against_node(self):
        p = DevicePlacement.manual(9)
        with pytest.raises(PlacementError):
            p.resolve(rank=0, n_available=4)

    def test_manual_negative_rejected(self):
        with pytest.raises(PlacementError):
            DevicePlacement.manual(-2)

    def test_auto_defaults(self):
        p = DevicePlacement.auto()
        assert p.resolve(rank=6, n_available=4) == 2

    def test_auto_with_params(self):
        p = DevicePlacement.auto(n_use=1, offset=3)
        assert p.resolve(rank=11, n_available=4) == 3

    def test_parse_mode(self):
        assert PlacementMode.parse("HOST") is PlacementMode.HOST
        assert PlacementMode.parse("auto") is PlacementMode.AUTO
        with pytest.raises(PlacementError):
            PlacementMode.parse("gpu")


class TestStrideOffsetValidation:
    """stride < 1 is a config error; negative offsets wrap (documented)."""

    def test_stride_zero_rejected(self):
        # stride=0 would silently collapse every rank onto offset.
        with pytest.raises(PlacementError):
            select_device(0, 4, stride=0)

    def test_negative_stride_rejected(self):
        with pytest.raises(PlacementError):
            select_device(0, 4, stride=-1)

    def test_auto_placement_validates_stride(self):
        with pytest.raises(PlacementError):
            DevicePlacement.auto(stride=0)
        with pytest.raises(PlacementError):
            DevicePlacement.auto(stride=-2)

    def test_negative_offset_wraps(self):
        # offset=-1 aims at the node's last device (Python % semantics).
        assert select_device(0, 4, offset=-1) == 3
        assert select_device(1, 4, offset=-1) == 0
        assert select_device(0, 4, offset=-5) == 3  # wraps past a full turn

    def test_negative_offset_through_placement(self):
        p = DevicePlacement.auto(offset=-1)
        assert p.resolve(0, n_available=4) == 3


EQ1 = dict(
    r=st.integers(0, 10_000),
    n_a=st.integers(1, 64),
    n_u=st.integers(1, 64),
    s=st.integers(1, 8),
    d0=st.integers(-64, 64),
)


class TestPlacementProperties:
    """Hypothesis invariants for Eq. 1 and DevicePlacement."""

    @given(**EQ1)
    def test_rank_assignment_is_periodic_in_n_use(self, r, n_a, n_u, s, d0):
        """Ranks r and r + n_use always land on the same device."""
        assert select_device(r, n_a, n_u, s, d0) == select_device(
            r + n_u, n_a, n_u, s, d0
        )

    @given(**EQ1)
    def test_offset_wrap_round_trips(self, r, n_a, n_u, s, d0):
        """Any offset is equivalent to its wrap into [0, n_a)."""
        assert select_device(r, n_a, n_u, s, d0) == select_device(
            r, n_a, n_u, s, d0 % n_a
        )

    @given(**EQ1)
    def test_auto_resolve_matches_select_device(self, r, n_a, n_u, s, d0):
        p = DevicePlacement.auto(n_use=n_u, stride=s, offset=d0)
        d = p.resolve(r, n_available=n_a)
        assert d == select_device(r, n_a, n_u, s, d0)
        assert 0 <= d < n_a
