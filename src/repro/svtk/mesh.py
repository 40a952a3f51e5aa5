"""Uniform Cartesian meshes (VTK image-data equivalent).

Data binning "specifies a subset of the variables to use as the
coordinate axes of a uniform Cartesian mesh and transforms the data
into the new coordinate system" (paper Section 4.2).  The binning
output is an instance of this mesh: a regular grid with cell-centered
result arrays (count / sum / min / max / average per bin).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ShapeMismatchError
from repro.svtk.data_array import DataArray, HostDataArray

__all__ = ["UniformCartesianMesh"]


class UniformCartesianMesh:
    """A uniform Cartesian mesh with cell-centered data arrays.

    Parameters
    ----------
    dims:
        Number of *cells* along each axis (e.g. ``(256, 256)`` for the
        paper's Figure 1 binning grids).
    origin:
        Coordinate of the low corner along each axis.
    spacing:
        Cell width along each axis.
    """

    def __init__(
        self,
        dims: Sequence[int],
        origin: Sequence[float] | None = None,
        spacing: Sequence[float] | None = None,
        name: str = "mesh",
    ):
        self.name = str(name)
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise ShapeMismatchError(f"invalid mesh dims: {dims}")
        ndim = len(self.dims)
        self.origin = (
            tuple(float(x) for x in origin) if origin is not None else (0.0,) * ndim
        )
        self.spacing = (
            tuple(float(x) for x in spacing) if spacing is not None else (1.0,) * ndim
        )
        if len(self.origin) != ndim or len(self.spacing) != ndim:
            raise ShapeMismatchError(
                f"origin/spacing rank must match dims rank {ndim}"
            )
        if any(s <= 0 for s in self.spacing):
            raise ShapeMismatchError(f"spacing must be positive: {self.spacing}")
        self._cell_data: dict[str, DataArray] = {}

    # -- geometry ----------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """Per-axis ``(low, high)`` coordinate bounds."""
        return tuple(
            (o, o + s * d) for o, s, d in zip(self.origin, self.spacing, self.dims)
        )

    # -- cell data -----------------------------------------------------------------
    def add_cell_array(self, array: DataArray) -> None:
        """Attach a cell-centered array (one tuple per cell)."""
        if array.n_tuples != self.n_cells:
            raise ShapeMismatchError(
                f"cell array {array.name!r} has {array.n_tuples} tuples, "
                f"mesh has {self.n_cells} cells"
            )
        self._cell_data[array.name] = array

    def add_host_cell_array(self, name: str, values: np.ndarray) -> HostDataArray:
        """Convenience: attach host values as a cell array."""
        values = np.asarray(values)
        arr = HostDataArray(name, values.reshape(-1))
        self.add_cell_array(arr)
        return arr

    def cell_array(self, name: str) -> DataArray:
        try:
            return self._cell_data[name]
        except KeyError:
            raise KeyError(
                f"mesh {self.name!r} has no cell array {name!r}; "
                f"available: {sorted(self._cell_data)}"
            ) from None

    def cell_array_as_grid(self, name: str) -> np.ndarray:
        """A cell array reshaped to the mesh dims (host copy/view)."""
        arr = self.cell_array(name).as_numpy_host()
        return np.asarray(arr).reshape(self.dims)

    @property
    def cell_array_names(self) -> tuple[str, ...]:
        return tuple(self._cell_data)

    def __contains__(self, name: str) -> bool:
        return name in self._cell_data

    def __iter__(self) -> Iterator[str]:
        return iter(self._cell_data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformCartesianMesh({self.name!r}, dims={self.dims}, "
            f"arrays={list(self._cell_data)})"
        )
