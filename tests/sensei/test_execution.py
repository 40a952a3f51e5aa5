"""Tests for execution methods: lockstep/async semantics, deep copies."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.hamr.allocator import Allocator
from repro.hamr.runtime import current_clock
from repro.sensei.execution import AsyncRunner, ExecutionMethod, deep_copy_table
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData


class TestExecutionMethod:
    def test_parse(self):
        assert ExecutionMethod.parse("lockstep") is ExecutionMethod.LOCKSTEP
        assert ExecutionMethod.parse("asynchronous") is ExecutionMethod.ASYNCHRONOUS
        assert ExecutionMethod.parse("ASYNC") is ExecutionMethod.ASYNCHRONOUS

    def test_parse_unknown(self):
        with pytest.raises(ExecutionError):
            ExecutionMethod.parse("eventually")


class TestDeepCopyTable:
    def test_host_columns_decoupled(self):
        t = TableData("bodies")
        t.add_host_column("x", np.array([1.0, 2.0]))
        copy = deep_copy_table(t)
        t["x"].data[0] = 99.0
        assert copy["x"].as_numpy_host()[0] == 1.0

    def test_device_columns_stay_on_device(self):
        t = TableData()
        col = HAMRDataArray.new("m", 8, allocator=Allocator.CUDA, device_id=1)
        col.fill(3.0)
        t.add_column(col)
        copy = deep_copy_table(t)
        assert copy["m"].device_id == 1
        col.get_data()[:] = 0.0
        np.testing.assert_array_equal(copy["m"].as_numpy_host(), [3.0] * 8)

    def test_copy_cost_charged_to_caller(self):
        """The deep copy is the 'apparent' async cost (paper Fig. 3)."""
        t = TableData()
        t.add_host_column("x", np.zeros(100_000))
        t0 = current_clock().now
        deep_copy_table(t)
        assert current_clock().now > t0

    def test_preserves_all_columns_and_names(self):
        t = TableData("tbl")
        for name in ("a", "b", "c"):
            t.add_host_column(name, np.zeros(4))
        copy = deep_copy_table(t)
        assert copy.column_names == ("a", "b", "c")
        assert copy.n_rows == 4


class TestAsyncRunner:
    def test_runs_task_and_accumulates_busy_time(self):
        r = AsyncRunner("t")
        ran = []
        r.launch(lambda: ran.append(current_clock().advance(0.5)), start_time=1.0)
        r.drain()
        assert len(ran) == 1
        assert r.busy_sim_time == pytest.approx(0.5)
        # The caller (at 0) waited for the task's end.
        assert current_clock().now == pytest.approx(1.5)

    def test_caller_does_not_wait_for_fast_task(self):
        clk = current_clock()
        clk.advance(10.0)
        r = AsyncRunner("t")
        r.launch(lambda: current_clock().advance(0.1), start_time=1.0)
        r.drain()
        # Task finished (sim time 1.1) before the caller's now (10): no stall.
        assert clk.now == pytest.approx(10.0)

    def test_caller_stalls_on_slow_task(self):
        clk = current_clock()
        r = AsyncRunner("t")
        r.launch(lambda: current_clock().advance(5.0), start_time=clk.now)
        r.drain()
        assert clk.now == pytest.approx(5.0)

    def test_single_lane_serializes_tasks(self):
        """A new launch drains the previous task first."""
        order = []
        r = AsyncRunner("t")
        r.launch(lambda: (time.sleep(0.02), order.append("first")))
        r.launch(lambda: order.append("second"))
        r.drain()
        assert order == ["first", "second"]

    def test_task_runs_on_worker_thread(self):
        seen = {}
        r = AsyncRunner("t")
        r.launch(lambda: seen.__setitem__("tid", threading.get_ident()))
        r.drain()
        assert seen["tid"] != threading.get_ident()

    def test_worker_gets_its_own_clock(self):
        main_clock = current_clock()
        main_clock.advance(3.0)
        seen = {}
        r = AsyncRunner("t")
        r.launch(lambda: seen.__setitem__("clk", current_clock()), start_time=3.0)
        r.drain()
        assert seen["clk"] is not main_clock
        assert seen["clk"].now >= 3.0

    def test_error_surfaces_on_drain(self):
        r = AsyncRunner("t")
        r.launch(lambda: 1 / 0)
        with pytest.raises(ExecutionError):
            r.drain()

    def test_error_surfaces_on_next_launch(self):
        r = AsyncRunner("t")
        r.launch(lambda: 1 / 0)
        time.sleep(0.05)
        with pytest.raises(ExecutionError):
            r.launch(lambda: None)

    def test_drain_idempotent(self):
        r = AsyncRunner("t")
        r.launch(lambda: None)
        r.drain()
        r.drain()

    def test_in_flight(self):
        r = AsyncRunner("t")
        ev = threading.Event()
        r.launch(ev.wait)
        assert r.in_flight
        ev.set()
        r.drain()
        assert not r.in_flight


class TestAsyncRunnerAccounting:
    """Busy-time accounting and the drain clock rules."""

    def test_back_to_back_launches_accumulate(self):
        r = AsyncRunner("t")
        r.launch(lambda: current_clock().advance(0.5), start_time=0.0)
        r.launch(lambda: current_clock().advance(0.25), start_time=1.0)
        r.launch(lambda: current_clock().advance(0.75), start_time=2.0)
        r.drain()
        assert r.busy_sim_time == pytest.approx(0.5 + 0.25 + 0.75)
        assert current_clock().now == pytest.approx(2.75)

    def test_zero_cost_tasks_count_but_add_no_busy_time(self):
        r = AsyncRunner("t")
        ran = []
        for i in range(4):
            r.launch(lambda: ran.append(i), start_time=float(i))
        r.drain()
        assert len(ran) == 4
        assert r.busy_sim_time == pytest.approx(0.0)

    def test_drain_advances_clock_only_when_task_is_late(self):
        clk = current_clock()
        clk.advance(2.0)
        r = AsyncRunner("t")
        # Ends at sim 1.5 < caller's 2.0: drain must not move the clock.
        r.launch(lambda: current_clock().advance(1.5), start_time=0.0)
        r.drain()
        assert clk.now == pytest.approx(2.0)
        # Ends at sim 4.5 > caller's 2.0: drain waits exactly until then.
        r.launch(lambda: current_clock().advance(2.5), start_time=2.0)
        r.drain()
        assert clk.now == pytest.approx(4.5)

    def test_error_on_drain_then_runner_recovers(self):
        """A failed task reports once; the lane stays usable after."""
        r = AsyncRunner("t")
        r.launch(lambda: current_clock().advance(0.5), start_time=0.0)
        r.launch(lambda: 1 / 0, start_time=1.0)
        with pytest.raises(ExecutionError) as exc_info:
            r.drain()
        assert isinstance(exc_info.value.__cause__, ZeroDivisionError)
        # The error was consumed: subsequent work runs clean and the
        # pre-failure accounting is preserved.
        r.drain()
        assert r.busy_sim_time == pytest.approx(0.5)
        r.launch(lambda: current_clock().advance(0.5), start_time=2.0)
        r.drain()
        assert r.busy_sim_time == pytest.approx(1.0)
