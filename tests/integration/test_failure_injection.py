"""Failure injection: the stack must fail loudly and cleanly.

Resource-hungry simulations are the norm ("simulations are resource
hungry codes, often making full use of the available memory"), so OOM,
bad configurations, and analysis crashes are first-class paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.errors import (
    BinningError,
    DeviceOutOfMemoryError,
    ExecutionError,
    MPIError,
)
from repro.hamr.allocator import Allocator
from repro.hw.node import VirtualNode, get_node, set_node
from repro.mpi.comm import run_spmd
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.execution import ExecutionMethod
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData
from repro.units import KiB, MiB
from tests.support import small_node_spec


class CrashingAnalysis(AnalysisAdaptor):
    """An analysis whose every step raises."""

    def __init__(self):
        super().__init__("crashing")

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        raise RuntimeError("bad analysis")


def small_device_node(capacity=64 * KiB):
    node = VirtualNode(small_node_spec(mem_capacity=capacity))
    set_node(node)
    return node


def make_adaptor(n=100, seed=0):
    rng = np.random.default_rng(seed)
    t = TableData("bodies")
    t.add_host_column("x", rng.uniform(-1, 1, n))
    t.add_host_column("mass", rng.uniform(0.5, 1.5, n))
    return TableDataAdaptor({"bodies": t})


class TestDeviceOOM:
    def test_staging_to_exhausted_device_raises(self):
        """An analysis placed on a full device surfaces OOM, not garbage."""
        node = small_device_node()
        # Fill device 1 almost completely.
        hog = HAMRDataArray.new(
            "hog", (node.devices[1].mem_capacity - node.devices[1]._mem_used - 100) // 8,
            allocator=Allocator.CUDA, device_id=1,
        )
        analysis = BinningAnalysis("bodies", [AxisSpec("x", 4)])
        analysis.set_device_id(1)
        with pytest.raises(DeviceOutOfMemoryError):
            analysis.execute(make_adaptor(n=5000))
        hog.delete()

    def test_oom_in_async_surfaces_at_finalize(self):
        node = small_device_node()
        hog = HAMRDataArray.new(
            "hog", (node.devices[2].mem_capacity - node.devices[2]._mem_used - 100) // 8,
            allocator=Allocator.CUDA, device_id=2,
        )
        analysis = BinningAnalysis("bodies", [AxisSpec("x", 4)])
        analysis.set_device_id(2)
        analysis.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        analysis.execute(make_adaptor(n=5000))  # launch succeeds
        with pytest.raises(ExecutionError):
            analysis.finalize()
        hog.delete()

    def test_memory_released_after_failed_run(self):
        """A failed lockstep analysis must not leak device temporaries."""
        node = small_device_node(capacity=MiB)
        analysis = BinningAnalysis(
            "bodies", [AxisSpec("x", 4)],
            [BinRequest(ReductionOp.SUM, "nope")],  # invalid variable
        )
        analysis.set_device_id(0)
        with pytest.raises(BinningError):
            analysis.execute(make_adaptor())
        assert node.devices[0]._mem_used == 0


class TestAnalysisCrashes:
    def test_lockstep_crash_propagates_immediately(self):
        a = CrashingAnalysis()
        with pytest.raises(RuntimeError):
            a.execute(make_adaptor())

    def test_async_crash_does_not_kill_simulation_step(self):
        """The launch returns; the error surfaces at the next interaction."""
        a = CrashingAnalysis()
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        a.execute(make_adaptor())  # no raise here
        with pytest.raises(ExecutionError, match="crashing"):
            a.finalize()

    def test_crash_in_one_rank_aborts_world(self):
        def fn(comm):
            a = BinningAnalysis("bodies", [AxisSpec("x", 4)])
            a.set_device_id(-1)
            a.initialize(comm)
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            a.execute(make_adaptor(seed=comm.rank))
            a.finalize()

        with pytest.raises(MPIError, match="rank 1"):
            run_spmd(3, fn)


class TestBadConfigurations:
    def test_missing_mesh(self):
        a = BinningAnalysis("no_such_mesh", [AxisSpec("x", 4)])
        with pytest.raises(ExecutionError):
            a.execute(make_adaptor())

    def test_empty_table_with_auto_bounds(self):
        t = TableData("bodies")
        t.add_host_column("x", np.array([]))
        a = BinningAnalysis("bodies", [AxisSpec("x", 4)])
        a.set_device_id(-1)
        with pytest.raises(BinningError, match="bounds"):
            a.execute(TableDataAdaptor({"bodies": t}))

    def test_empty_table_with_manual_bounds_is_fine(self):
        t = TableData("bodies")
        t.add_host_column("x", np.array([]))
        a = BinningAnalysis("bodies", [AxisSpec("x", 4, 0.0, 1.0)])
        a.set_device_id(-1)
        a.execute(TableDataAdaptor({"bodies": t}))
        a.finalize()
        assert a.latest.cell_array_as_grid("count").sum() == 0

    def test_placement_on_missing_device(self):
        from repro.errors import PlacementError

        a = BinningAnalysis("bodies", [AxisSpec("x", 4)])
        a.set_device_id(17)
        with pytest.raises(PlacementError):
            a.execute(make_adaptor())


class TestBridgeResilience:
    def test_failed_analysis_does_not_poison_bridge_state(self):
        good = BinningAnalysis("bodies", [AxisSpec("x", 4)], name="good")
        good.set_device_id(-1)
        bad = BinningAnalysis("bodies", [AxisSpec("vanished", 4)], name="bad")
        bad.set_device_id(-1)
        bridge = Bridge()
        bridge.initialize(analyses=[good, bad])
        with pytest.raises(BinningError):
            bridge.execute(make_adaptor())
        # The good analysis (which ran first) produced its result.
        assert good.latest is not None
