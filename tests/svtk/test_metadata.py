"""Tests for mesh metadata."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.metadata import ArrayMetadata, MeshMetadata, metadata_for
from repro.svtk.table import TableData


def make_table():
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(10))
    dev = HAMRDataArray.new("mass", 10, allocator=Allocator.CUDA, device_id=2)
    t.add_column(dev)
    return t


class TestTableMetadata:
    def test_structure(self):
        md = metadata_for(make_table())
        assert md.mesh_type == "table"
        assert md.name == "bodies"
        assert md.n_elements == 10
        assert [a.name for a in md.arrays] == ["x", "mass"]

    def test_residency_recorded(self):
        """The heterogeneous point: metadata says where arrays live."""
        md = metadata_for(make_table())
        assert md.array("x").on_host
        assert md.array("mass").device_id == 2
        assert md.array("mass").allocator == "cuda"

    def test_dtype_and_shape(self):
        md = metadata_for(make_table())
        assert md.array("x").dtype == "float64"
        assert md.array("x").n_tuples == 10
        assert md.array("x").n_components == 1

    def test_missing_array(self):
        md = metadata_for(make_table())
        with pytest.raises(KeyError):
            md.array("vy")


class TestMeshMetadata:
    def test_uniform_mesh(self):
        m = UniformCartesianMesh((4, 8), origin=(0, -1), spacing=(0.5, 0.25))
        m.add_host_cell_array("count", np.zeros(32))
        md = metadata_for(m)
        assert md.mesh_type == "uniform_mesh"
        assert md.n_elements == 32
        assert md.dims == (4, 8)
        assert md.bounds == ((0.0, 2.0), (-1.0, 1.0))
        assert md.array("count").centering == "cell"

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            metadata_for(object())

    def test_name_override(self):
        md = metadata_for(make_table(), name="renamed")
        assert md.name == "renamed"


class TestAdaptorMetadata:
    def test_data_adaptor_exposes_metadata(self):
        from repro.sensei.data_adaptor import TableDataAdaptor

        da = TableDataAdaptor({"bodies": make_table()})
        md = da.get_mesh_metadata("bodies")
        assert isinstance(md, MeshMetadata)
        assert md.array("mass").device_id == 2

    def test_newton_adaptor_metadata(self):
        from repro.newton.adaptor import NewtonDataAdaptor
        from repro.newton.solver import NewtonSolver, SolverConfig

        solver = NewtonSolver(SolverConfig(n_bodies=16, device_id=1))
        md = NewtonDataAdaptor(solver).get_mesh_metadata("bodies")
        assert md.n_elements == 16
        # All published columns are device-resident OpenMP allocations.
        assert all(a.device_id == 1 for a in md.arrays)
        assert all(a.allocator == "openmp" for a in md.arrays)
