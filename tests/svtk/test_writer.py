"""Tests for the host-only writers (paper Listing 4 pattern).

Each writer's bytes are checked directly: one small case of each is
pinned to its exact text, and the value lines of larger cases are
parsed back with ``np.loadtxt``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hamr.allocator import Allocator
from repro.svtk.data_array import HostDataArray
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData
from repro.svtk.writer import write_csv_table, write_vtk_image, write_vtk_particles


def _scalars(text: str, name: str) -> np.ndarray:
    """The values of ``SCALARS name``, parsed from its value lines."""
    lines = text.splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith(f"SCALARS {name} ")
    ) + 2  # skip the SCALARS and LOOKUP_TABLE lines
    stop = next(
        (i for i in range(start, len(lines)) if lines[i][:1].isalpha()),
        len(lines),
    )
    return np.loadtxt([" ".join(lines[start:stop])], ndmin=1)


def _points(text: str) -> np.ndarray:
    """The ``POINTS`` rows as an ``(n, 3)`` array."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("POINTS "))
    n = int(lines[i].split()[1])
    return np.loadtxt(lines[i + 1 : i + 1 + n], ndmin=2)


class TestVtkImage:
    def test_exact_text(self, tmp_path):
        m = UniformCartesianMesh((3, 1), origin=(-1, 0), spacing=(0.5, 0.25),
                                 name="grid")
        m.add_host_cell_array("mass sum", np.array([1.5, -2.0, 3.25]))
        m.add_host_cell_array("count", np.array([1, 0, 2], dtype=np.int64))
        p = tmp_path / "grid.vtk"
        write_vtk_image(m, p)
        assert p.read_text() == (
            "# vtk DataFile Version 3.0\n"
            "grid\n"
            "ASCII\n"
            "DATASET STRUCTURED_POINTS\n"
            "DIMENSIONS 4 2 1\n"
            "ORIGIN -1.0 0.0 0.0\n"
            "SPACING 0.5 0.25 1.0\n"
            "CELL_DATA 3\n"
            "SCALARS mass_sum double 1\n"
            "LOOKUP_TABLE default\n"
            "1.5 -2 3.25\n"
            "SCALARS count long 1\n"
            "LOOKUP_TABLE default\n"
            "1 0 2\n"
        )

    def test_2d_mesh_with_arrays(self, tmp_path):
        m = UniformCartesianMesh((4, 6), origin=(-1, 0), spacing=(0.5, 0.25),
                                 name="grid")
        rng = np.random.default_rng(1)
        m.add_host_cell_array("count", rng.integers(0, 9, 24).astype(float))
        m.add_host_cell_array("mass_sum", rng.normal(size=24))
        p = tmp_path / "g.vtk"
        write_vtk_image(m, p)
        text = p.read_text()
        assert "DIMENSIONS 5 7 1\nORIGIN -1.0 0.0 0.0\nSPACING 0.5 0.25 1.0\n" in text
        assert text.index("SCALARS count ") < text.index("SCALARS mass_sum ")
        for name in m.cell_array_names:
            np.testing.assert_allclose(
                _scalars(text, name), m.cell_array(name).as_numpy_host(),
                rtol=1e-9,
            )

    def test_1d_and_3d_dims(self, tmp_path):
        for dims, header in (((5,), "DIMENSIONS 6 1 1"),
                             ((2, 3, 4), "DIMENSIONS 3 4 5")):
            m = UniformCartesianMesh(dims)
            m.add_host_cell_array("v", np.arange(float(m.n_cells)))
            p = tmp_path / f"d{len(dims)}.vtk"
            write_vtk_image(m, p)
            text = p.read_text()
            assert header in text
            assert f"CELL_DATA {m.n_cells}" in text
            np.testing.assert_array_equal(_scalars(text, "v"), np.arange(m.n_cells))

    def test_trailing_singleton_axis_preserved(self, tmp_path):
        """A (3, 1) mesh keeps its rank: a padded axis is a single-*point*
        plane, a real single-cell axis has two points."""
        texts = {}
        for dims in ((3, 1), (3,)):
            m = UniformCartesianMesh(dims)
            m.add_host_cell_array("v", np.arange(3.0))
            p = tmp_path / f"m{len(dims)}.vtk"
            write_vtk_image(m, p)
            texts[dims] = p.read_text()
        assert "DIMENSIONS 4 2 1" in texts[(3, 1)]
        assert "DIMENSIONS 4 1 1" in texts[(3,)]
        np.testing.assert_array_equal(_scalars(texts[(3, 1)], "v"), np.arange(3.0))

    def test_header_and_cell_data(self, tmp_path):
        m = UniformCartesianMesh((2, 2), origin=(0, 0), spacing=(0.5, 0.5))
        m.add_host_cell_array("mass_sum", np.array([1.0, 2.0, 3.0, 4.0]))
        p = tmp_path / "grid.vtk"
        write_vtk_image(m, p)
        text = p.read_text()
        assert "DATASET STRUCTURED_POINTS" in text
        # cells + 1 per real axis; padded axes are single-point planes.
        assert "DIMENSIONS 3 3 1" in text
        assert "CELL_DATA 4" in text
        assert "SCALARS mass_sum double 1" in text
        assert "1 2 3 4" in text

    def test_device_resident_array_written_via_host_view(self, tmp_path):
        """libB never knows the data was on a device (Listing 4)."""
        m = UniformCartesianMesh((2, 2))
        arr = HAMRDataArray.new("count", 4, allocator=Allocator.CUDA, device_id=1)
        arr.fill(7.0)
        m.add_cell_array(arr)
        p = tmp_path / "dev.vtk"
        write_vtk_image(m, p)
        assert "7 7 7 7" in p.read_text()

    def test_3d_mesh(self, tmp_path):
        m = UniformCartesianMesh((2, 3, 4))
        m.add_host_cell_array("v", np.zeros(24))
        write_vtk_image(m, tmp_path / "g.vtk")
        assert "DIMENSIONS 3 4 5" in (tmp_path / "g.vtk").read_text()


@settings(max_examples=20, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**31 - 1),
)
def test_image_values_parse_back(dims, seed, tmp_path_factory):
    """Property: any 2-D mesh with finite data is written so that its
    header and value lines parse back to the mesh."""
    rng = np.random.default_rng(seed)
    m = UniformCartesianMesh(dims, origin=tuple(rng.uniform(-5, 5, 2)),
                             spacing=tuple(rng.uniform(0.1, 2.0, 2)))
    m.add_host_cell_array("v", rng.normal(size=m.n_cells))
    p = tmp_path_factory.mktemp("img") / "m.vtk"
    write_vtk_image(m, p)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[4] == f"DIMENSIONS {dims[0] + 1} {dims[1] + 1} 1"
    np.testing.assert_allclose(
        np.loadtxt([lines[5]], usecols=(1, 2)), m.origin, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        _scalars(text, "v"), m.cell_array("v").as_numpy_host(),
        rtol=1e-9, atol=1e-12,
    )


class TestVtkParticles:
    def test_exact_text(self, tmp_path):
        x = HostDataArray("x", np.array([0.0, 1.5]))
        y = HostDataArray("y", np.array([2.0, -3.0]))
        m = HostDataArray("mass", np.array([0.25, 20.0]))
        p = tmp_path / "pts.vtk"
        write_vtk_particles([x, y], p, attributes=[m])
        assert p.read_text() == (
            "# vtk DataFile Version 3.0\n"
            "particles\n"
            "ASCII\n"
            "DATASET POLYDATA\n"
            "POINTS 2 double\n"
            "0 2 0\n"
            "1.5 -3 0\n"
            "POINT_DATA 2\n"
            "SCALARS mass double 1\n"
            "LOOKUP_TABLE default\n"
            "0.25 20\n"
        )

    def test_positions_and_attributes_parse_back(self, tmp_path):
        rng = np.random.default_rng(2)
        cols = {n: rng.normal(size=7) for n in ("x", "y", "z", "mass", "vx")}
        p = tmp_path / "pts.vtk"
        write_vtk_particles(
            [HostDataArray(n, cols[n]) for n in ("x", "y", "z")],
            p,
            attributes=[HostDataArray(n, cols[n]) for n in ("mass", "vx")],
        )
        text = p.read_text()
        np.testing.assert_allclose(
            _points(text), np.column_stack([cols["x"], cols["y"], cols["z"]]),
            rtol=1e-9,
        )
        for n in ("mass", "vx"):
            np.testing.assert_allclose(_scalars(text, n), cols[n], rtol=1e-9)

    def test_positions_only(self, tmp_path):
        p = tmp_path / "pts.vtk"
        write_vtk_particles([HostDataArray("x", np.array([1.0, 2.0]))], p)
        text = p.read_text()
        assert "POINT_DATA" not in text
        np.testing.assert_array_equal(_points(text), [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def test_newton_bodies_layout(self, tmp_path):
        """Newton++'s bodies as a point cloud: positions, then mass."""
        from repro.newton.ic import uniform_random

        b = uniform_random(20, seed=3)
        p = tmp_path / "snap.vtk"
        write_vtk_particles(
            [HostDataArray(n, getattr(b, n)) for n in ("x", "y", "z")],
            p,
            attributes=[HostDataArray("mass", b.mass)],
        )
        text = p.read_text()
        assert "POINTS 20 double" in text
        assert "SCALARS mass double 1" in text
        np.testing.assert_allclose(
            _points(text), np.column_stack([b.x, b.y, b.z]), rtol=1e-9
        )
        np.testing.assert_allclose(_scalars(text, "mass"), b.mass, rtol=1e-9)

    def test_points_and_attributes(self, tmp_path):
        x = HostDataArray("x", np.array([0.0, 1.0]))
        y = HostDataArray("y", np.array([2.0, 3.0]))
        z = HostDataArray("z", np.array([4.0, 5.0]))
        m = HostDataArray("mass", np.array([10.0, 20.0]))
        p = tmp_path / "pts.vtk"
        write_vtk_particles([x, y, z], p, attributes=[m])
        text = p.read_text()
        assert "POINTS 2 double" in text
        assert "0 2 4" in text
        assert "POINT_DATA 2" in text
        assert "SCALARS mass double 1" in text

    def test_missing_axes_zero_filled(self, tmp_path):
        x = HostDataArray("x", np.array([1.0]))
        p = tmp_path / "pts.vtk"
        write_vtk_particles([x], p)
        assert "1 0 0" in p.read_text()

    def test_length_mismatch_rejected(self, tmp_path):
        x = HostDataArray("x", np.zeros(2))
        y = HostDataArray("y", np.zeros(3))
        with pytest.raises(ValueError):
            write_vtk_particles([x, y], tmp_path / "bad.vtk")

    def test_attribute_length_mismatch_rejected(self, tmp_path):
        x = HostDataArray("x", np.zeros(2))
        a = HostDataArray("a", np.zeros(3))
        with pytest.raises(ValueError):
            write_vtk_particles([x], tmp_path / "bad.vtk", attributes=[a])

    def test_name_sanitization(self, tmp_path):
        x = HostDataArray("x", np.zeros(1))
        a = HostDataArray("my attr", np.zeros(1))
        write_vtk_particles([x], tmp_path / "p.vtk", attributes=[a])
        assert "SCALARS my_attr" in (tmp_path / "p.vtk").read_text()


class TestCsvTable:
    def test_exact_text(self, tmp_path):
        t = TableData()
        t.add_host_column("a", np.array([1.5, -2.0]))
        t.add_host_column("b", np.array([0.0, 1e-12]))
        p = tmp_path / "t.csv"
        write_csv_table(t, p)
        assert p.read_text() == "a,b\n1.5,0\n-2,1e-12\n"

    def test_round_trip(self, tmp_path):
        t = TableData()
        t.add_host_column("x", np.array([1.5, 2.5]))
        t.add_host_column("y", np.array([-1.0, -2.0]))
        p = tmp_path / "t.csv"
        write_csv_table(t, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.5,-1"
        assert len(lines) == 3

    def test_device_column(self, tmp_path):
        t = TableData()
        col = HAMRDataArray.new("m", 2, allocator=Allocator.HIP, device_id=0)
        col.fill(4.0)
        t.add_column(col)
        p = tmp_path / "t.csv"
        write_csv_table(t, p)
        assert p.read_text().strip().splitlines()[1] == "4"

    def test_empty_table(self, tmp_path):
        p = tmp_path / "e.csv"
        write_csv_table(TableData(), p)
        assert p.read_text() == "\n"
