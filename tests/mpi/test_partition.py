"""Tests for domain-decomposition helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MPIError
from repro.mpi.partition import owner_of, slab_bounds


class TestSlabBounds:
    def test_partition_of_interval(self):
        slabs = [slab_bounds(0.0, 1.0, 4, r) for r in range(4)]
        assert slabs[0] == (0.0, 0.25)
        assert slabs[-1] == (0.75, 1.0)

    def test_last_slab_reaches_hi_exactly(self):
        lo, hi = slab_bounds(-1.0, 2.0, 3, 2)
        assert hi == 2.0

    def test_empty_interval_rejected(self):
        with pytest.raises(MPIError):
            slab_bounds(1.0, 1.0, 2, 0)

    @given(
        lo=st.floats(-1e6, 1e6),
        width=st.floats(1e-3, 1e6),
        size=st.integers(1, 32),
    )
    def test_slabs_tile_interval(self, lo, width, size):
        hi = lo + width
        slabs = [slab_bounds(lo, hi, size, r) for r in range(size)]
        assert slabs[0][0] == lo
        assert slabs[-1][1] == hi
        for (a0, a1), (b0, b1) in zip(slabs, slabs[1:]):
            assert a1 == pytest.approx(b0)


class TestOwnerOf:
    def test_ownership_matches_slabs(self):
        x = np.array([0.05, 0.3, 0.55, 0.95])
        owners = owner_of(x, 0.0, 1.0, 4)
        np.testing.assert_array_equal(owners, [0, 1, 2, 3])

    def test_out_of_domain_clamped(self):
        owners = owner_of(np.array([-5.0, 5.0]), 0.0, 1.0, 4)
        np.testing.assert_array_equal(owners, [0, 3])

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            owner_of(np.zeros(1), 0.0, 1.0, 0)

    @given(
        xs=st.lists(st.floats(-10, 10), min_size=1, max_size=50),
        size=st.integers(1, 16),
    )
    def test_owner_always_in_range_and_consistent(self, xs, size):
        """Property: each point's owner's slab actually contains it."""
        x = np.array(xs)
        owners = owner_of(x, -10.0, 10.0, size)
        assert ((owners >= 0) & (owners < size)).all()
        for xi, r in zip(x, owners):
            lo, hi = slab_bounds(-10.0, 10.0, size, int(r))
            if r == size - 1:
                assert xi >= lo - 1e-9
            else:
                assert lo - 1e-9 <= xi < hi + 1e-9
