"""Tests for the analysis back-ends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.errors import BinningError
from repro.hamr.allocator import Allocator
from repro.mpi.comm import run_spmd
from repro.sensei.backends import BinningAnalysis
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData


def make_adaptor(n=100, seed=0, step=0, comm=None, device_id=None):
    rng = np.random.default_rng(seed)
    t = TableData("bodies")
    for name, vals in (
        ("x", rng.uniform(-1, 1, n)),
        ("y", rng.uniform(-1, 1, n)),
        ("z", rng.uniform(-1, 1, n)),
        ("mass", rng.uniform(0.5, 1.5, n)),
    ):
        if device_id is None:
            t.add_host_column(name, vals)
        else:
            t.add_column(HAMRDataArray.zero_copy(
                name, vals, allocator=Allocator.CUDA, device_id=device_id))
    da = TableDataAdaptor({"bodies": t}, comm=comm)
    da.set_step(step, 0.01 * step)
    return da


class TestBinningAnalysis:
    def test_lockstep_host(self):
        a = BinningAnalysis(
            "bodies",
            [AxisSpec("x", 8, -1, 1), AxisSpec("y", 8, -1, 1)],
            [BinRequest(ReductionOp.SUM, "mass")],
        )
        a.set_device_id(-1)
        a.execute(make_adaptor())
        a.finalize()
        assert a.latest is not None
        assert a.latest.cell_array_as_grid("count").sum() == 100

    def test_async_device(self):
        a = BinningAnalysis("bodies", [AxisSpec("x", 4)], keep_results=True)
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        a.set_device_id(1)
        for s in range(3):
            a.execute(make_adaptor(step=s, seed=s))
        a.finalize()
        assert len(a.results) == 3
        assert all(m.cell_array_as_grid("count").sum() == 100 for m in a.results)

    def test_async_deep_copies_protect_against_overwrite(self):
        """The simulation may overwrite its arrays right after execute."""
        a = BinningAnalysis(
            "bodies", [AxisSpec("x", 2, -1, 1)],
            [BinRequest(ReductionOp.SUM, "mass")],
        )
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        a.set_device_id(-1)
        da = make_adaptor(n=50, seed=1)
        table = da.get_mesh("bodies")
        expected = float(np.sum(table["mass"].as_numpy_host()))
        a.execute(da)
        # Clobber the simulation's own arrays immediately.
        table["mass"].data[:] = 0.0
        table["x"].data[:] = 100.0
        a.finalize()
        assert a.latest.cell_array_as_grid("mass_sum").sum() == pytest.approx(expected)

    def test_result_callback_invoked(self):
        seen = []
        a = BinningAnalysis(
            "bodies", [AxisSpec("x", 4)],
            result_callback=lambda mesh, step: seen.append(step),
        )
        a.set_device_id(-1)
        a.execute(make_adaptor(step=9))
        a.finalize()
        assert seen == [9]

    def test_missing_columns_rejected(self):
        a = BinningAnalysis("bodies", [AxisSpec("vx", 4)])
        with pytest.raises(BinningError, match="vx"):
            a.execute(make_adaptor())

    def test_wrong_mesh_type_rejected(self):
        a = BinningAnalysis("bodies", [AxisSpec("x", 4)])
        da = TableDataAdaptor()
        da.set_table("bodies", object())  # type: ignore[arg-type]
        with pytest.raises(BinningError):
            a.execute(da)

    def test_device_resident_table_lockstep_same_device(self):
        """Paper's 'same device' placement: zero-copy in situ access."""
        a = BinningAnalysis(
            "bodies", [AxisSpec("x", 8)], [BinRequest(ReductionOp.SUM, "mass")]
        )
        a.set_device_id(2)
        a.execute(make_adaptor(device_id=2))
        a.finalize()
        assert a.latest.cell_array_as_grid("count").sum() == 100

    def test_mpi_merged_results(self):
        def fn(comm):
            a = BinningAnalysis("bodies", [AxisSpec("x", 4, -1, 1)])
            a.set_device_id(-1)
            a.initialize(comm)
            a.execute(make_adaptor(n=25, seed=comm.rank, comm=comm))
            a.finalize()
            return a.latest.cell_array_as_grid("count").sum()

        assert run_spmd(4, fn) == [100.0] * 4

    def test_async_mpi_uses_duplicated_comm(self):
        """Async analyses reduce over comm.dup(); sim traffic still works."""
        def fn(comm):
            a = BinningAnalysis("bodies", [AxisSpec("x", 4, -1, 1)])
            a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
            a.set_device_id(-1)
            a.initialize(comm)
            for s in range(2):
                a.execute(make_adaptor(n=10, seed=s + comm.rank, comm=comm, step=s))
                comm.allreduce(1)  # simulation-side collective in between
            a.finalize()
            return a.latest.cell_array_as_grid("count").sum()

        assert run_spmd(3, fn) == [30.0] * 3


class TestBridgeIntegration:
    def test_multiple_backends_one_bridge(self):
        bin_a = BinningAnalysis("bodies", [AxisSpec("x", 8)], keep_results=True)
        bin_a.set_device_id(-1)
        bin_b = BinningAnalysis(
            "bodies", [AxisSpec("mass", 8)], name="mass_hist", keep_results=True
        )
        bin_b.set_device_id(-1)
        b = Bridge()
        b.initialize(analyses=[bin_a, bin_b])
        for s in range(4):
            b.execute(make_adaptor(step=s, seed=s))
        b.finalize()
        assert len(bin_a.results) == len(bin_b.results) == 4
        assert bin_b.latest.cell_array_as_grid("count").sum() == 100
        assert b.total_apparent_time > 0
