"""The owner maps that cut ``m`` producers (or array blocks) over ``n``
ranks: ``block`` (how producers route to endpoints, and an array's
default layout), ``cyclic`` (an array's other initial layout) and the
repartition governor's weighted ``chain`` re-cut."""

from __future__ import annotations

import pytest

from repro.control.repartition import chain_owners
from repro.errors import MPIError
from repro.mpi.partition import block_owners, cyclic_owners

OWNERS = {
    "block": block_owners,
    "cyclic": cyclic_owners,
    "chain": lambda m, n: chain_owners([1.0] * m, n),
}


class TestBlock:
    def test_matches_historical_mapping(self):
        assert block_owners(4, 2) == [0, 0, 1, 1]

    def test_uneven_is_contiguous_and_fair(self):
        assign = block_owners(5, 2)
        assert assign == sorted(assign)  # contiguous ranges
        counts = [assign.count(e) for e in range(2)]
        assert sorted(counts) == [2, 3]

    @pytest.mark.parametrize("m,n", [(0, 1), (2, 0), (2, 3)])
    def test_invalid_shape_rejected(self, m, n):
        with pytest.raises(MPIError, match="invalid partition shape"):
            block_owners(m, n)


class TestCyclic:
    def test_round_robin(self):
        assert cyclic_owners(5, 2) == [0, 1, 0, 1, 0]

    def test_fairness(self):
        assign = cyclic_owners(7, 3)
        counts = [assign.count(e) for e in range(3)]
        assert max(counts) - min(counts) <= 1


class TestChain:
    def test_uniform_weights_match_blocks_exactly_when_n_divides_m(self):
        """The fair-share cuts fall on the block boundaries only when
        every rank gets the same count; otherwise they round the other
        way (3 over 2: chain ``[0, 1, 1]``, block ``[0, 0, 1]``)."""
        assert chain_owners([1.0] * 3, 2) == [0, 1, 1]
        for m in range(1, 40):
            for n in range(1, m + 1):
                same = chain_owners([1.0] * m, n) == block_owners(m, n)
                assert same is (m % n == 0), (m, n)

    def test_spans_are_contiguous(self):
        assign = chain_owners((1, 5, 1, 1, 1, 5, 1, 1, 1, 1), 3)
        assert assign == sorted(assign)

    def test_heavy_block_isolated(self):
        # One block outweighs the rest combined: the cut leaves it
        # alone on its endpoint instead of pairing it with neighbors.
        assign = chain_owners((20, 1, 1, 1, 1), 2)
        assert assign.count(assign[0]) == 1

    def test_balances_weighted_sums(self):
        weights = (4, 4, 1, 1, 1, 1, 1, 1, 1, 1)
        assign = chain_owners(weights, 4)
        loads = [0.0] * 4
        for b, e in enumerate(assign):
            loads[e] += weights[b]
        assert max(loads) <= 2 * (sum(weights) / 4)

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="cannot cut 2 items over 3"):
            chain_owners((1.0, 2.0), 3)

    @pytest.mark.parametrize("weights", [(1.0, -1.0, 2.0), (0.0, 0.0, 0.0)])
    def test_negative_or_zero_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="positive sum"):
            chain_owners(weights, 2)


@pytest.mark.parametrize("name", ["block", "cyclic", "chain"])
@pytest.mark.parametrize("m,n", [(1, 1), (4, 2), (5, 2), (7, 3), (8, 1)])
class TestInvariants:
    def test_every_producer_assigned_valid_endpoint(self, name, m, n):
        assign = OWNERS[name](m, n)
        assert len(assign) == m
        assert all(0 <= e < n for e in assign)

    def test_every_endpoint_used(self, name, m, n):
        assign = OWNERS[name](m, n)
        assert set(assign) == set(range(n))
