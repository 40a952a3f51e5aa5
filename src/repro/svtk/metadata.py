"""Mesh metadata — SENSEI's look-before-you-touch interface.

SENSEI back-ends first query *metadata* about the meshes a simulation
publishes (names, shapes, arrays, residency) and only then ask for the
data they actually need.  On heterogeneous nodes this matters more: the
metadata records *where* each array lives, so a back-end can plan
placement and movement before triggering any transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.svtk.data_array import DataArray
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData

__all__ = ["ArrayMetadata", "MeshMetadata", "metadata_for"]


@dataclass(frozen=True)
class ArrayMetadata:
    """Shape and residency of one published array."""

    name: str
    n_tuples: int
    n_components: int
    dtype: str
    centering: str                 # "column" | "cell" | "point"
    device_id: int = HOST_DEVICE_ID
    allocator: str = Allocator.MALLOC.value

    @property
    def on_host(self) -> bool:
        return self.device_id == HOST_DEVICE_ID


@dataclass(frozen=True)
class MeshMetadata:
    """Structure of one published mesh, without touching its data."""

    name: str
    mesh_type: str                 # "table" | "uniform_mesh"
    n_elements: int                # local rows (table) or cells (mesh)
    arrays: tuple[ArrayMetadata, ...] = ()
    dims: tuple[int, ...] | None = None
    bounds: tuple[tuple[float, float], ...] | None = None

    def array(self, name: str) -> ArrayMetadata:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(
            f"mesh {self.name!r} has no array {name!r}; "
            f"available: {[a.name for a in self.arrays]}"
        )


def _array_metadata(arr: DataArray, centering: str) -> ArrayMetadata:
    if isinstance(arr, HAMRDataArray):
        device_id = arr.device_id
        allocator = arr.allocator.value
    else:
        device_id = HOST_DEVICE_ID
        allocator = Allocator.MALLOC.value
    return ArrayMetadata(
        name=arr.name,
        n_tuples=arr.n_tuples,
        n_components=arr.n_components,
        dtype=np.dtype(arr.dtype).name,
        centering=centering,
        device_id=device_id,
        allocator=allocator,
    )


def metadata_for(dataset: object, name: str | None = None) -> MeshMetadata:
    """Derive metadata for a table or a uniform mesh."""
    if isinstance(dataset, TableData):
        return MeshMetadata(
            name=name or dataset.name,
            mesh_type="table",
            n_elements=dataset.n_rows,
            arrays=tuple(
                _array_metadata(dataset.column(c), "column")
                for c in dataset.column_names
            ),
        )
    if isinstance(dataset, UniformCartesianMesh):
        return MeshMetadata(
            name=name or dataset.name,
            mesh_type="uniform_mesh",
            n_elements=dataset.n_cells,
            arrays=tuple(
                _array_metadata(dataset.cell_array(c), "cell")
                for c in dataset.cell_array_names
            ),
            dims=dataset.dims,
            bounds=dataset.bounds,
        )
    raise TypeError(f"no metadata rule for {type(dataset).__name__}")
