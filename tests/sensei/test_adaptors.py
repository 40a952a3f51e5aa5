"""Tests for data adaptors, the analysis-adaptor base, and the bridge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.mpi.comm import run_spmd
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import DevicePlacement
from repro.svtk.table import TableData


class RecordingAnalysis(AnalysisAdaptor):
    """Minimal back-end that records how it was driven."""

    def __init__(self, name="rec"):
        super().__init__(name)
        self.acquired: list[tuple[int, bool]] = []
        self.processed: list[tuple[int, int]] = []  # (step, device)

    def acquire(self, data, deep):
        self.acquired.append((data.time_step, deep))
        return data.time_step

    def process(self, payload, comm, device_id):
        self.processed.append((payload, device_id))


def make_adaptor(step=0):
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(4))
    da = TableDataAdaptor({"bodies": t})
    da.set_step(step, 0.1 * step)
    return da


class TestTableDataAdaptor:
    def test_mesh_lookup(self):
        da = make_adaptor()
        assert da.get_mesh_names() == ("bodies",)
        assert da.get_mesh("bodies").n_rows == 4

    def test_missing_mesh(self):
        da = make_adaptor()
        with pytest.raises(ExecutionError, match="bodies"):
            da.get_mesh("particles")

    def test_step_tracking(self):
        da = make_adaptor(step=7)
        assert da.time_step == 7
        assert da.time == pytest.approx(0.7)


class TestAnalysisAdaptorExecution:
    def test_lockstep_acquires_shallow(self):
        a = RecordingAnalysis()
        a.set_device_id(HOST_DEVICE_ID)
        a.execute(make_adaptor(1))
        a.finalize()
        assert a.acquired == [(1, False)]
        assert a.processed == [(1, HOST_DEVICE_ID)]

    def test_async_acquires_deep_and_processes(self):
        a = RecordingAnalysis()
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        a.set_device_id(2)
        a.execute(make_adaptor(4))
        a.finalize()
        assert a.acquired == [(4, True)]
        assert a.processed == [(4, 2)]

    def test_execute_after_finalize_rejected(self):
        a = RecordingAnalysis()
        a.execute(make_adaptor())
        a.finalize()
        with pytest.raises(ExecutionError):
            a.execute(make_adaptor())

    def test_timings_recorded_per_step(self):
        a = RecordingAnalysis()
        for s in range(3):
            a.execute(make_adaptor(s))
        a.finalize()
        assert [t.time_step for t in a.timings] == [0, 1, 2]
        assert all(t.method is ExecutionMethod.LOCKSTEP for t in a.timings)

    def test_async_actual_filled_after_finalize(self):
        a = RecordingAnalysis()
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        a.execute(make_adaptor(0))
        assert np.isnan(a.timings[0].actual)
        a.finalize()
        assert not np.isnan(a.timings[0].actual)

    def test_control_api_switches(self):
        """The method is fixed once the analysis is initialized; the
        device placement stays settable."""
        a = RecordingAnalysis()
        a.set_execution_method("asynchronous")
        a.execute(make_adaptor(0))
        assert a.timings[-1].method is ExecutionMethod.ASYNCHRONOUS
        with pytest.raises(ExecutionError, match="before initialize"):
            a.set_execution_method(ExecutionMethod.LOCKSTEP)
        a.execute(make_adaptor(1))
        assert a.timings[-1].method is ExecutionMethod.ASYNCHRONOUS
        a.set_device_id(-1)
        assert a.resolve_device() == HOST_DEVICE_ID
        a.set_auto_placement(n_use=1, offset=2)
        assert a.resolve_device() == 2
        a.finalize()

    def test_placement_resolution_uses_rank(self):
        def fn(comm):
            a = RecordingAnalysis()
            a.initialize(comm)
            return a.resolve_device()

        assert run_spmd(4, fn) == [0, 1, 2, 3]

    def test_double_initialize_harmless(self):
        a = RecordingAnalysis()
        a.initialize()
        a.initialize()


class TestBridge:
    def test_executes_all_analyses_in_order(self):
        a1, a2 = RecordingAnalysis("a1"), RecordingAnalysis("a2")
        b = Bridge()
        b.initialize(analyses=[a1, a2])
        b.execute(make_adaptor(0))
        b.finalize()
        assert a1.processed and a2.processed

    def test_double_initialize_rejected(self):
        b = Bridge()
        b.initialize()
        with pytest.raises(ExecutionError):
            b.initialize()

    def test_execute_after_finalize_rejected(self):
        b = Bridge()
        b.initialize()
        b.finalize()
        with pytest.raises(ExecutionError):
            b.execute(make_adaptor())

    def test_step_costs_recorded(self):
        b = Bridge()
        b.initialize(analyses=[RecordingAnalysis()])
        for s in range(5):
            b.execute(make_adaptor(s))
        b.finalize()
        assert len(b.step_costs) == 5

    def test_finalize_idempotent(self):
        b = Bridge()
        b.initialize()
        b.finalize()
        b.finalize()

    def test_lazy_initialize_on_first_execute(self):
        b = Bridge()
        assert b.execute(make_adaptor())
        b.finalize()
