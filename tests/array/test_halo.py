"""Halo exchange: the plan, the wire traffic, the fault tolerance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.array import (
    ArrayPartition, DistributedArray, HaloExchanger, StencilConfig,
    StencilWorkload,
)
from repro.array import halo as halo_module
from repro.array.halo import halo_bytes_by_rank, halo_plan
from repro.errors import AllocationError, ArrayError
from repro.mpi import run_spmd
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy


def ghosts_from_dense(array, dense):
    """Expected ghost contents for every owned shard, clipped at the
    global edges (edge ghosts keep their allocation fill of zero)."""
    out = {}
    for b in sorted(array.shards):
        s = array.shards[b]
        left = np.zeros(array.halo)
        lo = max(0, s.start - array.halo)
        if s.start > 0:
            left[array.halo - (s.start - lo):] = dense[lo:s.start]
        right = np.zeros(array.halo)
        hi = min(len(dense), s.stop + array.halo)
        if s.stop < len(dense):
            right[:hi - s.stop] = dense[s.stop:hi]
        out[b] = (left, right)
    return out


def ghost_failures(array, dense):
    """Shards whose ghosts differ from the dense neighbourhood."""
    failures = []
    for b, (left, right) in sorted(ghosts_from_dense(array, dense).items()):
        shard = array.shards[b]
        if not (np.array_equal(shard.left_ghost, left)
                and np.array_equal(shard.right_ghost, right)):
            failures.append(b)
    return failures


def exchange_and_check(comm, array, dense, transport=None, steps=1):
    array[:] = dense
    exchanger = HaloExchanger(comm, transport)
    for step in range(1, steps + 1):
        exchanger.exchange(array, step)
    failures = ghost_failures(array, dense)
    exchanger.close()
    return failures, exchanger.halo_bytes_moved


class TestPlan:
    def test_zero_halo_means_no_plan(self):
        assert halo_plan(ArrayPartition(64, 2, block_rows=8), 0) == {}

    def test_block_layout_has_one_remote_edge_pair(self):
        p = ArrayPartition(64, 2, block_rows=8)  # ranks split at row 32
        plan = halo_plan(p, 2)
        remote = {k for k in plan if k[0] != k[1]}
        assert remote == {(0, 1), (1, 0)}
        # Rank 1's block 4 needs rows [30, 32) from rank 0.
        assert (4, "L", 30, 32) in plan[(0, 1)]

    def test_interior_edges_stay_on_the_diagonal(self):
        p = ArrayPartition(64, 2, block_rows=8)
        plan = halo_plan(p, 2)
        for (src, dst), entries in plan.items():
            for b, _side, lo, hi in entries:
                assert p.owners[b] == dst
                assert all(
                    p.owner_of(g) == src for g in range(lo, hi)
                )

    def test_wide_halo_splits_across_owners(self):
        # halo 3 > block_rows 2: one ghost region spans two owners.
        p = ArrayPartition(8, 4, block_rows=2)
        plan = halo_plan(p, 3)
        # Block 0 (rank 0) needs rows [2, 5): rank 1's [2,4) + rank 2's [4,5).
        assert (0, "R", 2, 4) in plan[(1, 0)]
        assert (0, "R", 4, 5) in plan[(2, 0)]

    def test_bytes_by_rank_counts_both_directions(self):
        p = ArrayPartition(64, 2, block_rows=8)
        nbytes = halo_bytes_by_rank(p, 2, 8)
        # One remote boundary: each side sends 2 rows and receives 2.
        assert nbytes == [32, 32]

    def test_bytes_scale_with_surface(self):
        block = ArrayPartition(64, 4, block_rows=4)
        cyclic = ArrayPartition(64, 4, block_rows=4, partitioner="cyclic")
        assert sum(halo_bytes_by_rank(cyclic, 1, 8)) > sum(
            halo_bytes_by_rank(block, 1, 8)
        )


class TestExchange:
    @pytest.mark.parametrize("partitioner", ["block", "cyclic"])
    @pytest.mark.parametrize("halo", [1, 2, 3])
    def test_ghosts_match_dense_neighborhood(self, partitioner, halo):
        dense = np.arange(40, dtype=np.float64) + 1.0

        def main(comm):
            array = DistributedArray.create(
                comm, 40, partitioner=partitioner, block_rows=5,
                halo=halo, device_id=0,
            )
            failures, _ = exchange_and_check(comm, array, dense)
            array.close()
            return failures

        for failures in run_spmd(4, main):
            assert not failures

    def test_repeated_exchanges_reuse_flows(self):
        dense = np.linspace(0.0, 1.0, 32)

        def main(comm):
            array = DistributedArray.create(
                comm, 32, block_rows=8, halo=1, device_id=0,
            )
            failures, nbytes = exchange_and_check(
                comm, array, dense, steps=3
            )
            array.close()
            return failures, nbytes

        for failures, _nbytes in run_spmd(2, main):
            assert not failures

    def test_exchange_survives_seeded_faults(self):
        dense = np.arange(48, dtype=np.float64)
        hostile = TransportConfig(
            chunk_bytes=64,
            retry=RetryPolicy(max_retries=40),
        ).with_faults(drop=0.2, duplicate=0.05, reorder=0.1, seed=7)

        def main(comm):
            array = DistributedArray.create(
                comm, 48, block_rows=6, halo=2, device_id=0,
            )
            failures, _ = exchange_and_check(
                comm, array, dense, transport=hostile, steps=2
            )
            array.close()
            return failures

        for failures in run_spmd(4, main):
            assert not failures

    def test_single_rank_exchange_is_all_local(self):
        dense = np.arange(16, dtype=np.float64)

        def main(comm):
            array = DistributedArray.create(
                comm, 16, block_rows=4, halo=1, device_id=0,
            )
            failures, nbytes = exchange_and_check(comm, array, dense)
            array.close()
            return failures, nbytes

        [(failures, nbytes)] = run_spmd(1, main)
        assert not failures
        assert nbytes == 0  # every ghost fill was a local copy

    def test_closed_exchanger_rejects_use(self):
        def main(comm):
            array = DistributedArray.create(
                comm, 16, block_rows=4, halo=1, device_id=0,
            )
            exchanger = HaloExchanger(comm)
            exchanger.exchange(array, 1)
            exchanger.close()
            with pytest.raises(ArrayError):
                exchanger.exchange(array, 2)
            with pytest.raises(ArrayError):
                exchanger.handoff(array, [], 2)
            array.close()
            return True

        assert run_spmd(1, main) == [True]


class TestTwoExchangersOneCommunicator:
    """Each exchanger's tags derive from its name, so two arrays can
    exchange over one communicator; a late duplicate of one array's
    frame used to be read by the other array's receiver (shared tags)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicates_stay_on_their_own_flow(self, seed):
        transport = TransportConfig(
            retry=RetryPolicy(max_retries=3),
        ).with_faults(duplicate=0.2, seed=seed)
        dense = {
            "a": np.arange(48, dtype=np.float64) + 1.0,
            "b": -2.0 * np.arange(48, dtype=np.float64) - 1.0,
        }

        def main(comm):
            arrays = {
                name: DistributedArray.create(
                    comm, 48, partitioner="cyclic", block_rows=4, halo=1,
                    device_id=0, name=name,
                )
                for name in sorted(dense)
            }
            exchangers = {
                name: HaloExchanger(comm, transport, name=name)
                for name in sorted(dense)
            }
            for name in sorted(dense):
                arrays[name][:] = dense[name]
            for step in range(1, 5):
                for name in sorted(dense):
                    exchangers[name].exchange(arrays[name], step)
            failures = [
                (name, b) for name in sorted(dense)
                for b in ghost_failures(arrays[name], dense[name])
            ]
            for name in sorted(dense):
                exchangers[name].close()
                arrays[name].close()
            return failures

        assert run_spmd(3, main) == [[], [], []]


class TestScheduleInvalidation:
    """The exchange is compiled to shard views once per (array,
    partition); these pin when that compiled schedule must be rebuilt."""

    @pytest.mark.parametrize("partitioner", ["block", "cyclic"])
    @pytest.mark.parametrize("halo", [1, 3])
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_repartition_moving_every_block(self, ranks, halo, partitioner):
        # block_rows 2 < halo 3: ghost spans cross several source shards.
        dense = np.arange(40, dtype=np.float64) + 1.0

        def main(comm):
            array = DistributedArray.create(
                comm, 40, partitioner=partitioner, block_rows=2,
                halo=halo, device_id=0,
            )
            array[:] = dense
            exchanger = HaloExchanger(comm)
            exchanger.exchange(array, 1)
            before = ghost_failures(array, dense)
            owners = [(o + 1) % ranks for o in array.partition.owners]
            array.repartition(owners, exchanger, 2)
            exchanger.exchange(array, 3)
            after = ghost_failures(array, dense)
            exchanger.close()
            array.close()
            return before, after

        assert run_spmd(ranks, main) == [([], [])] * ranks

    def test_equal_partitions_of_two_arrays_keep_their_own_ghosts(self):
        dense = {
            "a": np.arange(32, dtype=np.float64) + 1.0,
            "b": -3.0 * np.arange(32, dtype=np.float64) - 2.0,
        }

        def main(comm):
            # One partition object shared by both arrays: equal *and*
            # identical, so only the array tells the two apart.
            partition = ArrayPartition(
                32, comm.size, partitioner="cyclic", block_rows=4
            )
            arrays = {
                name: DistributedArray(
                    comm, partition, halo=2, device_id=0, name=name,
                )
                for name in sorted(dense)
            }
            exchanger = HaloExchanger(comm)
            failures = []
            for step, name in enumerate(["a", "b", "a", "b"], start=1):
                arrays[name][:] = dense[name] * step
                exchanger.exchange(arrays[name], step)
                failures += [
                    (name, b)
                    for b in ghost_failures(arrays[name], dense[name] * step)
                ]
            exchanger.close()
            for name in sorted(arrays):
                arrays[name].close()
            return failures

        assert run_spmd(2, main) == [[], []]

    def test_exchange_after_array_close_raises(self):
        def main(comm):
            array = DistributedArray.create(
                comm, 16, block_rows=4, halo=1, device_id=0,
            )
            exchanger = HaloExchanger(comm)
            exchanger.exchange(array, 1)
            array.close()
            with pytest.raises(AllocationError):
                exchanger.exchange(array, 2)
            exchanger.close()
            return True

        assert run_spmd(1, main) == [True]

    @pytest.mark.parametrize("partitioner", ["block", "cyclic"])
    @pytest.mark.parametrize("halo", [1, 3])
    def test_planned_bytes_match_the_pure_plan(self, partitioner, halo):
        def main(comm):
            array = DistributedArray.create(
                comm, 40, partitioner=partitioner, block_rows=2, halo=halo,
            )
            exchanger = HaloExchanger(comm)
            planned = exchanger.planned_halo_bytes(array)
            array.close()
            return planned

        p = ArrayPartition(40, 4, partitioner=partitioner, block_rows=2)
        assert run_spmd(4, main) == halo_bytes_by_rank(p, halo, 8)


class TestPlanIsBuiltOncePerPartition:
    def test_adaptive_stencil_plans_once_per_rank_and_partition(
        self, monkeypatch
    ):
        """The array benchmark's shape (8 ranks, 16384 rows, 32 steps,
        repartitioning on): neither the exchange nor the coordination
        rounds may re-derive the plan of a partition they already hold."""
        calls = []

        def counting_plan(partition, halo):
            calls.append(partition.owners)
            return halo_plan(partition, halo)

        monkeypatch.setattr(halo_module, "halo_plan", counting_plan)
        config = StencilConfig(
            length=16384, steps=32, block_rows=128, compute_rate=2.0e6,
            hotspot=(0.0, 0.0859375), hotspot_cost=6.0, hotspot_from=1,
        )
        ranks = 8

        def main(comm):
            workload = StencilWorkload(comm, config, adaptive=True)
            for k in range(1, config.steps + 1):
                workload.step(k)
            repartitions = workload.coordinator.repartitions
            workload.close()
            return repartitions

        (repartitions,) = set(run_spmd(ranks, main))
        assert repartitions >= 1
        assert len(calls) == ranks * (1 + repartitions)
