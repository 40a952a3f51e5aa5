"""Reduction operations for data binning.

"The reduction operations we support are summation, minimum, maximum,
and average." (paper Section 4.2) — plus the implicit per-cell counter
(histogram).

Each op defines: the identity its accumulator grid starts from, the
element-wise combiner for merging partial grids across MPI ranks, and a
finalizer that turns accumulator state into the reported value (empty
min/max/average bins become NaN).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import BinningError

__all__ = ["ReductionOp"]


class ReductionOp(enum.Enum):
    """Per-bin reduction applied to a binned variable."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVERAGE = "average"

    @classmethod
    def parse(cls, text: str) -> "ReductionOp":
        """Parse the XML spelling of an op (case-insensitive, avg alias)."""
        key = str(text).strip().lower()
        if key in ("avg", "mean"):
            key = "average"
        for op in cls:
            if op.value == key:
                return op
        raise BinningError(
            f"unknown reduction {text!r}; supported: "
            f"{[op.value for op in cls]} (plus aliases 'avg', 'mean')"
        )

    @property
    def identity(self) -> float:
        """Initial accumulator value for one bin."""
        if self is ReductionOp.MIN:
            return np.inf
        if self is ReductionOp.MAX:
            return -np.inf
        return 0.0

    @property
    def needs_values(self) -> bool:
        """COUNT is coordinate-only; the others consume a binned variable."""
        return self is not ReductionOp.COUNT

    @property
    def mpi_op(self) -> str:
        """The communicator reduction merging partial grids."""
        if self is ReductionOp.MIN:
            return "min"
        if self is ReductionOp.MAX:
            return "max"
        return "sum"

    def accumulator_shape(self, n_cells: int) -> tuple[int, ...]:
        """Shape of the flat accumulator for ``n_cells`` bins."""
        if self is ReductionOp.AVERAGE:
            return (2, n_cells)  # [sum, count]
        return (n_cells,)

    def make_accumulator(self, n_cells: int) -> np.ndarray:
        acc = np.empty(self.accumulator_shape(n_cells), dtype=np.float64)
        if self is ReductionOp.AVERAGE:
            acc.fill(0.0)
        else:
            acc.fill(self.identity)
        return acc

    def finalize(self, acc: np.ndarray) -> np.ndarray:
        """Turn accumulator state into the reported per-bin values."""
        if self is ReductionOp.AVERAGE:
            sums, counts = acc[0], acc[1]
            with np.errstate(invalid="ignore", divide="ignore"):
                out = sums / counts
            out[counts == 0] = np.nan
            return out
        if self in (ReductionOp.MIN, ReductionOp.MAX):
            out = acc.astype(np.float64, copy=True)
            out[~np.isfinite(out)] = np.nan
            return out
        return acc.astype(np.float64, copy=True)

    def result_name(self, variable: str | None) -> str:
        """Cell-array name for the result (e.g. ``mass_sum``)."""
        if self is ReductionOp.COUNT:
            return "count"
        if variable is None:
            raise BinningError(f"{self.value} reduction requires a variable")
        return f"{variable}_{self.value}"
