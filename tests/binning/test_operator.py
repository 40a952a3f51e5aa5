"""Tests for the DataBinner operator: CPU/device parity, MPI merge,
and the paper's mass-conservation invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest, DataBinner
from repro.binning.reduce import ReductionOp
from repro.errors import BinningError
from repro.hamr.allocator import Allocator
from repro.mpi.comm import run_spmd
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData


def make_table(n=100, seed=0, device_id=None):
    """A particle-like table; optionally device-resident columns."""
    rng = np.random.default_rng(seed)
    cols = {
        "x": rng.uniform(-1, 1, n),
        "y": rng.uniform(-1, 1, n),
        "z": rng.uniform(-1, 1, n),
        "mass": rng.uniform(0.5, 2.0, n),
    }
    t = TableData("bodies")
    for name, vals in cols.items():
        if device_id is None:
            t.add_host_column(name, vals)
        else:
            arr = HAMRDataArray.zero_copy(
                name, vals, allocator=Allocator.CUDA, device_id=device_id
            )
            t.add_column(arr)
    return t, cols


class TestBinRequest:
    def test_count_takes_no_variable(self):
        with pytest.raises(BinningError):
            BinRequest(ReductionOp.COUNT, "mass")

    def test_value_ops_need_variable(self):
        with pytest.raises(BinningError):
            BinRequest(ReductionOp.SUM)

    def test_result_names(self):
        assert BinRequest(ReductionOp.COUNT).result_name == "count"
        assert BinRequest(ReductionOp.MAX, "mass").result_name == "mass_max"


class TestDataBinnerConfig:
    def test_count_added_automatically(self):
        b = DataBinner([AxisSpec("x", 4)], [BinRequest(ReductionOp.SUM, "mass")])
        assert b.requests[0].op is ReductionOp.COUNT

    def test_no_axes_rejected(self):
        with pytest.raises(BinningError):
            DataBinner([])

    def test_duplicate_requests_rejected(self):
        with pytest.raises(BinningError):
            DataBinner(
                [AxisSpec("x", 4)],
                [BinRequest(ReductionOp.SUM, "m"), BinRequest(ReductionOp.SUM, "m")],
            )

    def test_missing_axis_column(self):
        t, _ = make_table()
        b = DataBinner([AxisSpec("nope", 4)])
        with pytest.raises(BinningError, match="nope"):
            b.execute(t)

    def test_missing_variable_column(self):
        t, _ = make_table()
        b = DataBinner([AxisSpec("x", 4)], [BinRequest(ReductionOp.SUM, "nope")])
        with pytest.raises(BinningError, match="nope"):
            b.execute(t)


class TestHostBinning:
    def test_count_matches_histogram2d(self):
        t, cols = make_table(500)
        b = DataBinner([AxisSpec("x", 8, -1, 1), AxisSpec("y", 8, -1, 1)])
        mesh = b.execute(t)
        grid = mesh.cell_array_as_grid("count")
        ref, _, _ = np.histogram2d(
            cols["x"], cols["y"], bins=8, range=[(-1, 1), (-1, 1)]
        )
        np.testing.assert_array_equal(grid, ref)

    def test_mass_sum_conserves_total_mass(self):
        """Figure 1 invariant: sum over bins == total binned mass."""
        t, cols = make_table(300)
        b = DataBinner(
            [AxisSpec("x", 16), AxisSpec("y", 16)],
            [BinRequest(ReductionOp.SUM, "mass")],
        )
        mesh = b.execute(t)
        assert mesh.cell_array_as_grid("mass_sum").sum() == pytest.approx(
            cols["mass"].sum()
        )

    def test_min_le_avg_le_max(self):
        t, _ = make_table(400)
        b = DataBinner(
            [AxisSpec("x", 4), AxisSpec("y", 4)],
            [
                BinRequest(ReductionOp.MIN, "mass"),
                BinRequest(ReductionOp.AVERAGE, "mass"),
                BinRequest(ReductionOp.MAX, "mass"),
            ],
        )
        mesh = b.execute(t)
        mn = mesh.cell_array_as_grid("mass_min")
        av = mesh.cell_array_as_grid("mass_average")
        mx = mesh.cell_array_as_grid("mass_max")
        occupied = ~np.isnan(av)
        assert (mn[occupied] <= av[occupied] + 1e-12).all()
        assert (av[occupied] <= mx[occupied] + 1e-12).all()

    def test_empty_bins_nan_for_min_max_avg(self):
        t = TableData()
        t.add_host_column("x", np.array([0.1]))
        t.add_host_column("m", np.array([5.0]))
        b = DataBinner(
            [AxisSpec("x", 4, 0.0, 4.0)],
            [BinRequest(ReductionOp.MIN, "m"), BinRequest(ReductionOp.AVERAGE, "m")],
        )
        mesh = b.execute(t)
        mn = mesh.cell_array_as_grid("m_min")
        assert mn[0] == 5.0
        assert np.isnan(mn[1:]).all()

    def test_mesh_geometry_reflects_bounds(self):
        t, _ = make_table()
        b = DataBinner([AxisSpec("x", 10, -2.0, 3.0)])
        mesh = b.execute(t)
        assert mesh.origin == (-2.0,)
        assert mesh.spacing == (0.5,)
        assert mesh.dims == (10,)

    def test_auto_bounds_cover_all_rows(self):
        t, _ = make_table(200)
        mesh = DataBinner([AxisSpec("x", 8), AxisSpec("y", 8)]).execute(t)
        assert mesh.cell_array_as_grid("count").sum() == 200

    def test_three_dimensional_binning(self):
        """Binning is rank-generic: a 3-D phase-space grid works too."""
        t, cols = make_table(500, seed=9)
        b = DataBinner(
            [AxisSpec("x", 4, -1, 1), AxisSpec("y", 5, -1, 1),
             AxisSpec("z", 6, -1, 1)],
            [BinRequest(ReductionOp.SUM, "mass")],
        )
        mesh = b.execute(t)
        assert mesh.dims == (4, 5, 6)
        grid = mesh.cell_array_as_grid("count")
        ref, _ = np.histogramdd(
            np.column_stack([cols["x"], cols["y"], cols["z"]]),
            bins=(4, 5, 6), range=[(-1, 1)] * 3,
        )
        np.testing.assert_array_equal(grid, ref)
        assert mesh.cell_array_as_grid("mass_sum").sum() == pytest.approx(
            cols["mass"].sum()
        )

    def test_one_dimensional_matches_histogram(self):
        t, cols = make_table(300, seed=4)
        mesh = DataBinner([AxisSpec("x", 12, -1, 1)]).execute(t)
        ref, _ = np.histogram(cols["x"], bins=12, range=(-1, 1))
        np.testing.assert_array_equal(mesh.cell_array_as_grid("count"), ref)


class TestDeviceBinning:
    def test_device_matches_host(self):
        """The CUDA implementation must agree with the CPU reference."""
        t_host, _ = make_table(300, seed=3)
        t_dev, _ = make_table(300, seed=3, device_id=1)
        reqs = [
            BinRequest(ReductionOp.SUM, "mass"),
            BinRequest(ReductionOp.MIN, "mass"),
            BinRequest(ReductionOp.MAX, "mass"),
            BinRequest(ReductionOp.AVERAGE, "mass"),
        ]
        axes = [AxisSpec("x", 8, -1, 1), AxisSpec("y", 8, -1, 1)]
        mesh_h = DataBinner(axes, reqs).execute(t_host)
        mesh_d = DataBinner(axes, reqs).execute(t_dev, device_id=1)
        for name in mesh_h.cell_array_names:
            np.testing.assert_allclose(
                mesh_d.cell_array_as_grid(name),
                mesh_h.cell_array_as_grid(name),
                equal_nan=True,
                err_msg=name,
            )

    def test_host_columns_staged_to_device(self):
        """Host-resident input is moved automatically (HDA access API)."""
        t, cols = make_table(100)
        mesh = DataBinner(
            [AxisSpec("x", 4)], [BinRequest(ReductionOp.SUM, "mass")]
        ).execute(t, device_id=2)
        assert mesh.cell_array_as_grid("mass_sum").sum() == pytest.approx(
            cols["mass"].sum()
        )

    def test_device_memory_released_after_execute(self):
        from repro.hw.node import get_node

        t, _ = make_table(100)
        DataBinner([AxisSpec("x", 4)]).execute(t, device_id=1)
        assert get_node().devices[1]._mem_used == 0


    def test_failed_step_releases_device_memory(self):
        """The AVERAGE accumulator does not fit; everything the step had
        staged or allocated before that must be back on the device."""
        from repro.errors import DeviceOutOfMemoryError
        from repro.hw.node import VirtualNode, set_node
        from tests.support import small_node_spec

        node = VirtualNode(small_node_spec(1, 40_000))
        set_node(node)
        rng = np.random.default_rng(0)
        t = TableData("bodies")
        for name in ("x", "m"):
            t.add_host_column(name, rng.random(1000))
        binner = DataBinner(
            [AxisSpec("x", 1024)],
            [BinRequest(ReductionOp.SUM, "m"),
             BinRequest(ReductionOp.AVERAGE, "m"),
             BinRequest(ReductionOp.MAX, "m")],
        )
        before = node.device(0)._mem_used
        with pytest.raises(DeviceOutOfMemoryError) as err:
            binner.execute(t, device_id=0)
        # Checked while the traceback still holds the failed frames, so
        # nothing here relies on garbage collection.
        assert err.value.requested == 16384
        assert node.device(0)._mem_used == before


class TestMPIBinning:
    def test_grids_merged_across_ranks(self):
        """Each rank holds part of the data; results are global."""
        def fn(comm):
            rng = np.random.default_rng(comm.rank)
            t = TableData()
            t.add_host_column("x", rng.uniform(-1, 1, 50))
            t.add_host_column("m", np.full(50, 1.0 + comm.rank))
            b = DataBinner(
                [AxisSpec("x", 8, -1, 1)], [BinRequest(ReductionOp.SUM, "m")]
            )
            mesh = b.execute(t, comm=comm)
            return (
                mesh.cell_array_as_grid("count").sum(),
                mesh.cell_array_as_grid("m_sum").sum(),
            )

        out = run_spmd(4, fn)
        # 4 ranks x 50 rows; masses 1+2+3+4 = 10 per 50 rows.
        for count_total, mass_total in out:
            assert count_total == 200
            assert mass_total == pytest.approx(50.0 * (1 + 2 + 3 + 4))

    def test_min_max_merge(self):
        def fn(comm):
            t = TableData()
            t.add_host_column("x", np.array([0.5]))
            t.add_host_column("m", np.array([float(comm.rank)]))
            b = DataBinner(
                [AxisSpec("x", 2, 0, 1)],
                [BinRequest(ReductionOp.MIN, "m"), BinRequest(ReductionOp.MAX, "m")],
            )
            mesh = b.execute(t, comm=comm)
            return (
                mesh.cell_array_as_grid("m_min")[1],
                mesh.cell_array_as_grid("m_max")[1],
            )

        out = run_spmd(3, fn)
        assert all(o == (0.0, 2.0) for o in out)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 200),
    bins=st.integers(1, 32),
    seed=st.integers(0, 2**31 - 1),
)
def test_binning_conservation_properties(n, bins, seed):
    """Properties that must hold for any data: total count equals rows,
    total binned sum equals the column sum, average within [min, max]."""
    rng = np.random.default_rng(seed)
    t = TableData()
    t.add_host_column("x", rng.normal(size=n))
    t.add_host_column("v", rng.normal(size=n))
    mesh = DataBinner(
        [AxisSpec("x", bins)],
        [BinRequest(ReductionOp.SUM, "v"), BinRequest(ReductionOp.AVERAGE, "v")],
    ).execute(t)
    count = mesh.cell_array_as_grid("count")
    total = mesh.cell_array_as_grid("v_sum")
    avg = mesh.cell_array_as_grid("v_average")
    assert count.sum() == n
    assert total.sum() == pytest.approx(
        float(np.sum(t["v"].as_numpy_host())), rel=1e-9, abs=1e-9
    )
    occ = count > 0
    assert np.isnan(avg[~occ]).all()
    assert np.allclose(avg[occ] * count[occ], total[occ], rtol=1e-9, atol=1e-9)
