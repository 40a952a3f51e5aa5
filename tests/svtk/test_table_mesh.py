"""Tests for tabular and mesh datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.hamr.allocator import Allocator
from repro.svtk.data_array import HostDataArray
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData


class TestTableData:
    def test_add_and_lookup(self):
        t = TableData("bodies")
        t.add_host_column("x", np.arange(5.0))
        t.add_host_column("m", np.ones(5))
        assert t.n_rows == 5
        assert t.column_names == ("x", "m")
        np.testing.assert_array_equal(t["x"].as_numpy_host(), np.arange(5.0))

    def test_row_count_enforced(self):
        t = TableData()
        t.add_host_column("x", np.zeros(5))
        with pytest.raises(ShapeMismatchError):
            t.add_host_column("y", np.zeros(6))

    def test_duplicate_name_rejected(self):
        t = TableData()
        t.add_host_column("x", np.zeros(5))
        with pytest.raises(ShapeMismatchError):
            t.add_host_column("x", np.zeros(5))

    def test_vector_column_rejected(self):
        t = TableData()
        col = HAMRDataArray.new("v", 5, n_components=3, allocator=Allocator.MALLOC)
        with pytest.raises(ShapeMismatchError):
            t.add_column(col)

    def test_missing_column_error_lists_available(self):
        t = TableData("t")
        t.add_host_column("x", np.zeros(2))
        with pytest.raises(KeyError, match="x"):
            t.column("nope")

    def test_device_columns_supported(self):
        """The HDA extension lets tables reference device-resident columns."""
        t = TableData()
        col = HAMRDataArray.new("m", 8, allocator=Allocator.CUDA, device_id=0)
        col.fill(2.0)
        t.add_column(col)
        np.testing.assert_array_equal(t["m"].as_numpy_host(), [2.0] * 8)

    def test_contains_and_iter(self):
        t = TableData()
        t.add_host_column("a", np.zeros(1))
        t.add_host_column("b", np.zeros(1))
        assert "a" in t
        assert list(t) == ["a", "b"]

    def test_empty_table(self):
        t = TableData()
        assert t.n_rows == 0
        assert t.column_names == ()


class TestUniformCartesianMesh:
    def test_basic_geometry(self):
        m = UniformCartesianMesh((4, 2), origin=(0.0, -1.0), spacing=(0.5, 1.0))
        assert m.ndim == 2
        assert m.n_cells == 8
        assert m.bounds == ((0.0, 2.0), (-1.0, 1.0))

    def test_default_origin_spacing(self):
        m = UniformCartesianMesh((2, 2, 2))
        assert m.origin == (0.0, 0.0, 0.0)
        assert m.spacing == (1.0, 1.0, 1.0)

    def test_invalid_dims(self):
        with pytest.raises(ShapeMismatchError):
            UniformCartesianMesh((0, 4))
        with pytest.raises(ShapeMismatchError):
            UniformCartesianMesh(())

    def test_invalid_spacing(self):
        with pytest.raises(ShapeMismatchError):
            UniformCartesianMesh((2,), spacing=(0.0,))

    def test_rank_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            UniformCartesianMesh((2, 2), origin=(0.0,))

    def test_cell_array_size_enforced(self):
        m = UniformCartesianMesh((4, 4))
        with pytest.raises(ShapeMismatchError):
            m.add_host_cell_array("bad", np.zeros(5))

    def test_cell_array_as_grid(self):
        m = UniformCartesianMesh((2, 3))
        m.add_host_cell_array("v", np.arange(6.0))
        g = m.cell_array_as_grid("v")
        assert g.shape == (2, 3)

    def test_device_cell_array(self):
        m = UniformCartesianMesh((2, 2))
        arr = HAMRDataArray.new("sum", 4, allocator=Allocator.CUDA, device_id=1)
        arr.fill(3.0)
        m.add_cell_array(arr)
        np.testing.assert_array_equal(m.cell_array_as_grid("sum"), np.full((2, 2), 3.0))
