"""Tests for the host-only writer (paper Listing 4 pattern).

The writer's bytes are checked directly: one small case is pinned to
its exact text, and the value lines of larger cases are parsed back
with ``np.loadtxt``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hamr.allocator import Allocator
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.writer import write_vtk_image


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

