"""Tabular datasets — columns of data arrays.

"Given tabular data where columns represent different variables and
rows represent co-occurring measurements or realizations of these
variables ..." (paper Section 4.2).  :class:`TableData` is that
container: an ordered mapping of column name to
:class:`~repro.svtk.data_array.DataArray`, with all columns sharing one
row count.  It is the shape the Newton++ data adaptor publishes (one
row per body) and the shape the binning analysis consumes.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.errors import ShapeMismatchError
from repro.svtk.data_array import DataArray, HostDataArray

__all__ = ["TableData"]


class TableData:
    """An ordered collection of equally long, named columns."""

    def __init__(self, name: str = "table"):
        self.name = str(name)
        self._columns: dict[str, DataArray] = {}

    # -- mutation -------------------------------------------------------------
    def add_column(self, array: DataArray) -> None:
        """Add ``array`` as a column, validating the shared row count."""
        if array.n_components != 1:
            raise ShapeMismatchError(
                f"table columns are scalar; {array.name!r} has "
                f"{array.n_components} components"
            )
        if self._columns:
            n = self.n_rows
            if array.n_tuples != n:
                raise ShapeMismatchError(
                    f"column {array.name!r} has {array.n_tuples} rows, "
                    f"table has {n}"
                )
        if array.name in self._columns:
            raise ShapeMismatchError(f"duplicate column name {array.name!r}")
        self._columns[array.name] = array

    def add_host_column(self, name: str, values: np.ndarray) -> HostDataArray:
        """Convenience: wrap host values in a column."""
        col = HostDataArray(name, np.asarray(values))
        self.add_column(col)
        return col

    # -- access ----------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).n_tuples

    @property
    def nbytes(self) -> int:
        """Raw payload bytes across every column."""
        return sum(col.nbytes for col in self._columns.values())

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> DataArray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {sorted(self._columns)}"
            ) from None

    def __getitem__(self, name: str) -> DataArray:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def items(self) -> Mapping[str, DataArray]:
        return dict(self._columns)

    def synchronize(self) -> None:
        """Synchronize every column."""
        for col in self._columns.values():
            col.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableData({self.name!r}, rows={self.n_rows}, "
            f"columns={list(self._columns)})"
        )
