"""DistributedArray: global indexing, reductions, shard handoff."""

from __future__ import annotations

import numpy as np
import pytest

from repro.array import ArrayPartition, DistributedArray, HaloExchanger
from repro.errors import ArrayError
from repro.hamr.allocator import Allocator
from repro.mpi import run_spmd
from repro.mpi.comm import SelfCommunicator


def spmd_array(size, body, *, length=64, block_rows=8, halo=0,
               partitioner="block", device_id=0):
    """Run ``body(comm, array)`` on every rank of a fresh array."""

    def main(comm):
        array = DistributedArray.create(
            comm, length, partitioner=partitioner,
            block_rows=block_rows, halo=halo, device_id=device_id,
        )
        try:
            return body(comm, array)
        finally:
            array.close()

    return run_spmd(size, main)


class TestConstruction:
    def test_shards_cover_owned_blocks(self):
        def body(comm, array):
            blocks = array.partition.blocks_of(comm.rank)
            assert tuple(sorted(array.shards)) == blocks
            spans = [array.partition.block_span(b) for b in blocks]
            owned = sum(s.rows for s in array.shards.values())
            assert owned == sum(hi - lo for lo, hi in spans)
            return True

        assert all(spmd_array(4, body))

    def test_device_placement_is_pooled(self):
        def body(comm, array):
            shard = next(iter(array.shards.values()))
            return shard.buffer.allocator

        assert set(spmd_array(2, body, device_id=0)) == {Allocator.CUDA_ASYNC}
        assert set(spmd_array(2, body, device_id=None)) == {Allocator.MALLOC}

    def test_rank_count_must_match(self):
        comm = SelfCommunicator()
        with pytest.raises(ArrayError):
            DistributedArray(comm, ArrayPartition(64, 2, block_rows=8))

    def test_negative_halo_rejected(self):
        comm = SelfCommunicator()
        with pytest.raises(ArrayError):
            DistributedArray(
                comm, ArrayPartition(64, 1, block_rows=8), halo=-1
            )


class TestIndexing:
    def test_assignment_then_gather_round_trips(self):
        reference = np.arange(64, dtype=np.float64)

        def body(comm, array):
            array[:] = reference
            return array[:]

        for got in spmd_array(3, body):
            np.testing.assert_array_equal(got, reference)

    def test_scalar_read_resolves_owner(self):
        def body(comm, array):
            array[:] = np.arange(64, dtype=np.float64)
            return array[17], array[-1]

        assert set(spmd_array(4, body)) == {(17.0, 63.0)}

    def test_partial_span_assignment_is_owner_local(self):
        def body(comm, array):
            array[:] = 0.0
            array[10:30] = np.full(20, 5.0)
            array[40] = 7.0
            return array[:]

        expected = np.zeros(64)
        expected[10:30] = 5.0
        expected[40] = 7.0
        for got in spmd_array(4, body):
            np.testing.assert_array_equal(got, expected)

    def test_scalar_broadcast_assignment(self):
        def body(comm, array):
            array[:] = 3.0
            return array[5:9]

        for got in spmd_array(2, body):
            np.testing.assert_array_equal(got, np.full(4, 3.0))

    def test_bad_keys_rejected(self):
        def body(comm, array):
            for key in (64, "x", slice(0, 10, 2)):
                with pytest.raises(ArrayError):
                    array._span(key)
            with pytest.raises(ArrayError):
                array[0:4] = np.zeros(3)
            return True

        assert all(spmd_array(1, body))


class TestReduce:
    def test_reductions_match_dense(self):
        reference = np.linspace(-1.0, 2.0, 64)

        def body(comm, array):
            array[:] = reference
            return (
                array.reduce("sum"), array.reduce("min"), array.reduce("max")
            )

        for total, lo, hi in spmd_array(4, body, partitioner="cyclic"):
            assert total == pytest.approx(float(np.sum(reference)))
            assert lo == float(np.min(reference))
            assert hi == float(np.max(reference))

    def test_unknown_reduction_rejected(self):
        def body(comm, array):
            with pytest.raises(ArrayError):
                array.reduce("mean")
            return True

        assert all(spmd_array(1, body))


class TestRepartition:
    def test_handoff_preserves_contents(self):
        reference = np.arange(64, dtype=np.float64)

        def body(comm, array):
            array[:] = reference
            exchanger = HaloExchanger(comm)
            # Invert the block layout: every block changes owner.
            new_owners = tuple(
                array.partition.ranks - 1 - o
                for o in array.partition.owners
            )
            shipped = array.repartition(new_owners, exchanger, event=1)
            after = array[:]
            exchanger.close()
            return shipped, array.partition.owners, after

        for shipped, owners, after in spmd_array(2, body):
            assert owners == (1, 1, 1, 1, 0, 0, 0, 0)
            np.testing.assert_array_equal(after, reference)
            assert shipped == 8 * 4 * np.float64().itemsize

    def test_noop_repartition_ships_nothing(self):
        def body(comm, array):
            exchanger = HaloExchanger(comm)
            shipped = array.repartition(
                array.partition.owners, exchanger, event=1
            )
            exchanger.close()
            return shipped

        assert spmd_array(2, body) == [0, 0]


class TestClose:
    def test_close_is_idempotent(self):
        comm = SelfCommunicator()
        array = DistributedArray(comm, ArrayPartition(16, 1, block_rows=4))
        array.close()
        array.close()
