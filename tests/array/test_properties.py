"""Property tests: the distributed array vs a dense numpy reference.

Hypothesis drives arbitrary shapes (length, block granularity, rank
count, layout, halo width 0-3) and arbitrary programs of global
slice/scalar assignments.  Every rank applies the identical program
SPMD-style; the result must match the same program applied to one
dense numpy array — reads, reductions, and ghost neighborhoods alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.array import ArrayPartition, DistributedArray, HaloExchanger
from repro.mpi import run_spmd


@st.composite
def geometries(draw):
    ranks = draw(st.integers(1, 4))
    length = draw(st.integers(8, 48))
    block_rows = draw(st.integers(1, 8))
    nblocks = -(-length // block_rows)
    if nblocks < ranks:
        # Floor division guarantees ceil(length / block_rows) >= ranks.
        block_rows = max(1, length // ranks)
        nblocks = -(-length // block_rows)
    # The two initial layouts, or any owner map at all: non-contiguous,
    # unbalanced, ranks owning nothing (what a repartition may install).
    layout = draw(st.one_of(
        st.sampled_from(("block", "cyclic")),
        st.lists(
            st.integers(0, ranks - 1), min_size=nblocks, max_size=nblocks
        ).map(tuple),
    ))
    halo = draw(st.integers(0, 3))
    return ranks, length, block_rows, layout, halo


@st.composite
def programs(draw, length):
    """A list of (start, stop, fill) span assignments."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start, length))
        fill = draw(st.floats(-100.0, 100.0))
        ops.append((start, stop, fill))
    return ops


def build(comm, geometry):
    _ranks, length, block_rows, layout, halo = geometry
    if isinstance(layout, str):
        partition = ArrayPartition(
            length, comm.size, partitioner=layout, block_rows=block_rows
        )
    else:
        partition = ArrayPartition(
            length, comm.size, block_rows=block_rows, owners=layout
        )
    return DistributedArray(comm, partition, halo=halo, device_id=0)


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@common
@given(data=st.data(), geometry=geometries())
def test_assignments_round_trip_against_dense(data, geometry):
    ranks, length = geometry[0], geometry[1]
    ops = data.draw(programs(length))
    probe = data.draw(st.integers(0, length - 1))

    dense = np.arange(length, dtype=np.float64)
    for i, (start, stop, fill) in enumerate(ops):
        span = stop - start
        if i % 2 == 0:
            dense[start:stop] = fill
        else:
            dense[start:stop] = fill + np.arange(span, dtype=np.float64)

    def main(comm):
        array = build(comm, geometry)
        array[:] = np.arange(length, dtype=np.float64)
        for i, (start, stop, fill) in enumerate(ops):
            span = stop - start
            if i % 2 == 0:
                array[start:stop] = fill
            else:
                array[start:stop] = fill + np.arange(
                    span, dtype=np.float64
                )
        full = array[:]
        scalar = array[probe]
        total = array.reduce("sum")
        peak = array.reduce("max")
        array.close()
        return full, scalar, total, peak

    for full, scalar, total, peak in run_spmd(ranks, main):
        np.testing.assert_array_equal(full, dense)
        assert scalar == dense[probe]
        # Summation order differs (per-shard partials vs numpy's
        # pairwise fold), so sums agree only to rounding.
        assert total == pytest.approx(float(np.sum(dense)), rel=1e-12)
        assert peak == float(np.max(dense))


@common
@given(geometry=geometries())
def test_halo_exchange_matches_dense_neighborhood(geometry):
    ranks, length, _rows, _layout, halo = geometry
    dense = np.linspace(-1.0, 1.0, length)

    def main(comm):
        array = build(comm, geometry)
        array[:] = dense
        exchanger = HaloExchanger(comm)
        exchanger.exchange(array, step=1)
        failures = []
        for b in sorted(array.shards):
            s = array.shards[b]
            for side, ghost, glo in (
                ("L", s.left_ghost, s.start - halo),
                ("R", s.right_ghost, s.stop),
            ):
                for i, got in enumerate(ghost):
                    g = glo + i
                    want = dense[g] if 0 <= g < length else 0.0
                    if got != want:
                        failures.append((b, side, g, got, want))
        exchanger.close()
        array.close()
        return failures

    for failures in run_spmd(ranks, main):
        assert not failures
