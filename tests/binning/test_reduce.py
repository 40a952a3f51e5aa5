"""Tests for the binning reduction operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.reduce import ReductionOp
from repro.errors import BinningError
from repro.mpi.comm import run_spmd


class TestParse:
    def test_canonical_names(self):
        for op in ReductionOp:
            assert ReductionOp.parse(op.value) is op

    def test_case_and_aliases(self):
        assert ReductionOp.parse("SUM") is ReductionOp.SUM
        assert ReductionOp.parse("avg") is ReductionOp.AVERAGE
        assert ReductionOp.parse("mean") is ReductionOp.AVERAGE

    def test_unknown(self):
        with pytest.raises(BinningError):
            ReductionOp.parse("median")


class TestAccumulators:
    def test_identities(self):
        assert ReductionOp.SUM.identity == 0.0
        assert ReductionOp.COUNT.identity == 0.0
        assert ReductionOp.MIN.identity == np.inf
        assert ReductionOp.MAX.identity == -np.inf

    def test_shapes(self):
        assert ReductionOp.SUM.accumulator_shape(10) == (10,)
        assert ReductionOp.AVERAGE.accumulator_shape(10) == (2, 10)

    def test_make_accumulator(self):
        acc = ReductionOp.MIN.make_accumulator(3)
        assert np.all(np.isinf(acc))
        acc = ReductionOp.AVERAGE.make_accumulator(3)
        assert acc.shape == (2, 3)
        assert np.all(acc == 0)

    def test_needs_values(self):
        assert not ReductionOp.COUNT.needs_values
        for op in (ReductionOp.SUM, ReductionOp.MIN, ReductionOp.MAX,
                   ReductionOp.AVERAGE):
            assert op.needs_values


def combine(op: ReductionOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two ranks' partial grids merged the way DataBinner merges them."""
    parts = (a, b)
    return run_spmd(2, lambda comm: comm.Allreduce(parts[comm.rank], op=op.mpi_op))[0]


class TestCombine:
    def test_sum_combines_additively(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        np.testing.assert_array_equal(combine(ReductionOp.SUM, a, b), [4.0, 6.0])

    def test_min_max(self):
        a, b = np.array([1.0, 5.0]), np.array([3.0, 4.0])
        np.testing.assert_array_equal(combine(ReductionOp.MIN, a, b), [1.0, 4.0])
        np.testing.assert_array_equal(combine(ReductionOp.MAX, a, b), [3.0, 5.0])

    def test_average_componentwise(self):
        a = np.array([[1.0, 2.0], [1.0, 1.0]])  # sums, counts
        b = np.array([[3.0, 0.0], [2.0, 0.0]])
        out = combine(ReductionOp.AVERAGE, a, b)
        np.testing.assert_array_equal(out, [[4.0, 2.0], [3.0, 1.0]])

    def test_mpi_ops(self):
        assert ReductionOp.SUM.mpi_op == "sum"
        assert ReductionOp.COUNT.mpi_op == "sum"
        assert ReductionOp.AVERAGE.mpi_op == "sum"
        assert ReductionOp.MIN.mpi_op == "min"
        assert ReductionOp.MAX.mpi_op == "max"


class TestFinalize:
    def test_average_divides(self):
        acc = np.array([[6.0, 0.0], [3.0, 0.0]])
        out = ReductionOp.AVERAGE.finalize(acc)
        assert out[0] == 2.0
        assert np.isnan(out[1])  # empty bin

    def test_min_empty_bins_are_nan(self):
        acc = np.array([1.0, np.inf])
        out = ReductionOp.MIN.finalize(acc)
        assert out[0] == 1.0
        assert np.isnan(out[1])

    def test_max_empty_bins_are_nan(self):
        acc = np.array([-np.inf, 2.0])
        out = ReductionOp.MAX.finalize(acc)
        assert np.isnan(out[0])
        assert out[1] == 2.0

    def test_sum_count_pass_through(self):
        acc = np.array([0.0, 3.0])
        np.testing.assert_array_equal(ReductionOp.SUM.finalize(acc), acc)
        np.testing.assert_array_equal(ReductionOp.COUNT.finalize(acc), acc)

    def test_finalize_does_not_mutate(self):
        acc = np.array([np.inf])
        ReductionOp.MIN.finalize(acc)
        assert np.isinf(acc[0])


class TestResultNames:
    def test_count(self):
        assert ReductionOp.COUNT.result_name(None) == "count"

    def test_variable_suffix(self):
        assert ReductionOp.SUM.result_name("mass") == "mass_sum"
        assert ReductionOp.AVERAGE.result_name("vx") == "vx_average"

    def test_missing_variable(self):
        with pytest.raises(BinningError):
            ReductionOp.SUM.result_name(None)
