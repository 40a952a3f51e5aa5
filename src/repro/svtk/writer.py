"""Host-only writers — the ``libB`` of the paper's Listing 4.

Writers consume any data array through :meth:`get_host_accessible`
only: "Any host-device data movement is handled automatically and
invisibly to libB if it is needed."  They never inspect allocators or
device ordinals, demonstrating PM/location-agnostic consumption.

Formats:

- legacy-ASCII VTK ``STRUCTURED_POINTS`` for uniform meshes (loadable
  by ParaView/VisIt for post hoc visualization);
- legacy-ASCII VTK ``POLYDATA`` point clouds for particle data
  (Newton++'s "VTK compatible output format");
- CSV for tables.
"""

from __future__ import annotations

import os
from typing import IO, Iterable

import numpy as np

from repro.svtk.data_array import DataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData

__all__ = ["write_vtk_image", "write_vtk_particles", "write_csv_table"]


def _host_values(array: DataArray) -> np.ndarray:
    """Stage an array to the host the way Listing 4 does."""
    view = array.get_host_accessible()
    array.synchronize()
    values = np.array(view.get(), copy=True)
    view.release()
    return values


def write_vtk_image(mesh: UniformCartesianMesh, path: str | os.PathLike) -> None:
    """Write a uniform mesh with its cell data as legacy-ASCII VTK."""
    # Pad missing axes as single-*point* planes (0 cells -> 1 point), so
    # point and cell counts both match the original mesh exactly.
    dims = list(mesh.dims) + [0] * (3 - mesh.ndim)
    origin = list(mesh.origin) + [0.0] * (3 - mesh.ndim)
    spacing = list(mesh.spacing) + [1.0] * (3 - mesh.ndim)
    with open(path, "w", encoding="ascii") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{mesh.name}\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        # STRUCTURED_POINTS dimensions are point counts: cells + 1.
        f.write(f"DIMENSIONS {dims[0] + 1} {dims[1] + 1} {dims[2] + 1}\n")
        f.write(f"ORIGIN {origin[0]} {origin[1]} {origin[2]}\n")
        f.write(f"SPACING {spacing[0]} {spacing[1]} {spacing[2]}\n")
        f.write(f"CELL_DATA {mesh.n_cells}\n")
        for name in mesh.cell_array_names:
            arr = mesh.cell_array(name)
            values = _host_values(arr)
            vtk_type = _vtk_type(values.dtype)
            f.write(f"SCALARS {_sanitize(name)} {vtk_type} {arr.n_components}\n")
            f.write("LOOKUP_TABLE default\n")
            _write_values(f, values)


def write_vtk_particles(
    positions: Iterable[DataArray], path: str | os.PathLike,
    attributes: Iterable[DataArray] = (),
) -> None:
    """Write particles as legacy-ASCII VTK POLYDATA.

    ``positions`` supplies 1-3 coordinate arrays (x, y, z); missing axes
    are zero-filled.  ``attributes`` become POINT_DATA scalars.
    """
    coords = [_host_values(p) for p in positions]
    if not 1 <= len(coords) <= 3:
        raise ValueError(f"positions must supply 1-3 axes, got {len(coords)}")
    n = coords[0].size
    for c in coords[1:]:
        if c.size != n:
            raise ValueError("coordinate arrays must be equally long")
    while len(coords) < 3:
        coords.append(np.zeros(n))
    xyz = np.column_stack(coords)
    with open(path, "w", encoding="ascii") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("particles\n")
        f.write("ASCII\n")
        f.write("DATASET POLYDATA\n")
        f.write(f"POINTS {n} double\n")
        for row in xyz:
            f.write(f"{row[0]:.10g} {row[1]:.10g} {row[2]:.10g}\n")
        attrs = list(attributes)
        if attrs:
            f.write(f"POINT_DATA {n}\n")
            for arr in attrs:
                values = _host_values(arr)
                if values.size != n:
                    raise ValueError(
                        f"attribute {arr.name!r} has {values.size} values, "
                        f"expected {n}"
                    )
                f.write(f"SCALARS {_sanitize(arr.name)} {_vtk_type(values.dtype)} 1\n")
                f.write("LOOKUP_TABLE default\n")
                _write_values(f, values)


def write_csv_table(table: TableData, path: str | os.PathLike) -> None:
    """Write a table as CSV (header row of column names)."""
    names = table.column_names
    columns = [_host_values(table.column(c)) for c in names]
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(names) + "\n")
        if columns:
            for row in zip(*columns):
                f.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _vtk_type(dtype: np.dtype) -> str:
    kind = np.dtype(dtype)
    if kind == np.float64:
        return "double"
    if kind == np.float32:
        return "float"
    if kind.kind in "iu":
        return "long" if kind.itemsize == 8 else "int"
    raise ValueError(f"unsupported dtype for VTK output: {dtype}")


def _sanitize(name: str) -> str:
    """VTK scalar names cannot contain whitespace."""
    return "_".join(str(name).split())


def _write_values(f: IO[str], values: np.ndarray, per_line: int = 9) -> None:
    flat = values.reshape(-1)
    for i in range(0, flat.size, per_line):
        chunk = flat[i : i + per_line]
        f.write(" ".join(f"{v:.10g}" for v in chunk) + "\n")
