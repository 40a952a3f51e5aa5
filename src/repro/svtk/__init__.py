"""The SENSEI data model (``svtk``), with the paper's HAMR extensions.

SENSEI's data model is based on VTK: an abstract ``svtkDataArray``
defines array management/access interfaces, and datasets (tables,
meshes) are built on top of it.  Stock VTK arrays are host-only; the
paper's contribution is the
``svtkHAMRDataArray`` subclass — reproduced here as
:class:`~repro.svtk.hamr_array.HAMRDataArray` — which adds host *and*
device memory management plus programming-model interoperability.

Datasets:

- :class:`~repro.svtk.table.TableData` — a column store of data arrays;
  the natural container for particle/tabular data and the input shape
  the data-binning analysis consumes;
- :class:`~repro.svtk.mesh.UniformCartesianMesh` — a uniform Cartesian
  mesh with cell-centered arrays; the output shape of data binning.

The writer in :mod:`repro.svtk.writer` consumes a mesh's arrays through
host-accessible views only — it is the ``libB`` of the paper's
Listing 4.
"""

from repro.svtk.data_array import DataArray, HostDataArray
from repro.svtk.hamr_array import HAMRDataArray, HAMRDoubleArray
from repro.svtk.table import TableData
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.writer import write_vtk_image

__all__ = [
    "DataArray",
    "HostDataArray",
    "HAMRDataArray",
    "HAMRDoubleArray",
    "TableData",
    "UniformCartesianMesh",
    "write_vtk_image",
]
