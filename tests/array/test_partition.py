"""ArrayPartition: block geometry, ownership, re-cutting."""

from __future__ import annotations

import pytest

from repro.array import ArrayPartition
from repro.errors import ArrayError


class TestGeometry:
    def test_block_spans_tile_the_index_space(self):
        p = ArrayPartition(100, 3, block_rows=16)
        assert p.nblocks == 7
        spans = [p.block_span(b) for b in range(p.nblocks)]
        assert spans[0][0] == 0
        assert spans[-1][1] == 100
        for (_, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 == b0

    def test_short_tail_block(self):
        p = ArrayPartition(100, 3, block_rows=16)
        assert p.block_span(6) == (96, 100)

    def test_default_block_rows_gives_about_four_per_rank(self):
        p = ArrayPartition(1000, 4)
        assert p.nblocks == 16

    def test_block_of_and_owner_of(self):
        p = ArrayPartition(64, 2, block_rows=16)
        assert p.owners == (0, 0, 1, 1)
        assert p.block_of(0) == 0
        assert p.block_of(31) == 1
        assert p.owner_of(31) == 0
        assert p.owner_of(32) == 1

    def test_blocks_of_and_rows_of(self):
        p = ArrayPartition(100, 3, block_rows=16, partitioner="cyclic")
        assert p.blocks_of(0) == (0, 3, 6)

        def rows_of(rank):
            spans = [p.block_span(b) for b in p.blocks_of(rank)]
            return sum(hi - lo for lo, hi in spans)

        assert rows_of(0) == 16 + 16 + 4
        assert sum(rows_of(r) for r in range(3)) == 100


class TestValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ArrayError):
            ArrayPartition(0, 1)
        with pytest.raises(ArrayError):
            ArrayPartition(10, 0)
        with pytest.raises(ArrayError):
            ArrayPartition(10, 2, block_rows=0)

    def test_rejects_fewer_blocks_than_ranks(self):
        with pytest.raises(ArrayError):
            ArrayPartition(10, 4, block_rows=8)

    @pytest.mark.parametrize("layout", ["weighted", "chain", "hilbert"])
    def test_rejects_unknown_initial_layout(self, layout):
        """Only ``block`` and ``cyclic`` name an initial layout; any
        other owner map is given as ``owners=``."""
        with pytest.raises(ArrayError, match="unknown initial layout"):
            ArrayPartition(64, 2, block_rows=16, partitioner=layout)

    def test_rejects_wrong_owner_count(self):
        with pytest.raises(ArrayError):
            ArrayPartition(64, 2, block_rows=16, owners=(0, 1))

    def test_rejects_owner_outside_rank_range(self):
        with pytest.raises(ArrayError):
            ArrayPartition(64, 2, block_rows=16, owners=(0, 1, 2, 1))

    def test_rejects_out_of_range_queries(self):
        p = ArrayPartition(64, 2, block_rows=16)
        with pytest.raises(ArrayError):
            p.block_span(4)
        with pytest.raises(ArrayError):
            p.block_of(64)
        with pytest.raises(ArrayError):
            p.blocks_of(2)


class TestDerivation:
    def test_with_owners_keeps_geometry(self):
        p = ArrayPartition(64, 2, block_rows=16)
        q = p.with_owners((1, 0, 1, 0))
        assert q.owners == (1, 0, 1, 0)
        assert (q.length, q.ranks, q.block_rows) == (64, 2, 16)
        assert q != p

    def test_equality_and_hash_are_value_based(self):
        a = ArrayPartition(64, 2, block_rows=16)
        b = ArrayPartition(64, 2, block_rows=16)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ArrayPartition(64, 2, block_rows=16, partitioner="cyclic")
