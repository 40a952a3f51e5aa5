"""A host-only writer — the ``libB`` of the paper's Listing 4.

It consumes every data array through :meth:`get_host_accessible` only:
"Any host-device data movement is handled automatically and invisibly
to libB if it is needed."  It never inspects allocators or device
ordinals, demonstrating PM/location-agnostic consumption.

The format is legacy-ASCII VTK ``STRUCTURED_POINTS`` for uniform meshes
(loadable by ParaView/VisIt for post hoc visualization).
"""

from __future__ import annotations

import os
from typing import IO

import numpy as np

from repro.svtk.data_array import DataArray
from repro.svtk.mesh import UniformCartesianMesh

__all__ = ["write_vtk_image"]


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
