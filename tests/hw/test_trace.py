"""Tests for the deeper-profiling tools (Section 5 future work)."""

from __future__ import annotations

import json

import pytest

from repro.hw.clock import EventCategory, Timeline
from repro.hw.trace import (
    chrome_trace,
    concurrency_profile,
    idle_gaps,
    utilization,
    write_chrome_trace,
)


def make_timeline():
    tl = Timeline("gpu0")
    tl.schedule(0.0, 1.0, name="k1", category=EventCategory.COMPUTE)
    tl.schedule(2.0, 0.5, name="c1", category=EventCategory.COPY)
    tl.schedule(4.0, 1.0, name="k2", category=EventCategory.COMPUTE)
    return tl


class TestUtilization:
    def test_busy_fraction(self):
        u = utilization(make_timeline())
        assert u.window == (0.0, 5.0)
        assert u.busy == pytest.approx(2.5)
        assert u.fraction == pytest.approx(0.5)

    def test_category_breakdown(self):
        u = utilization(make_timeline())
        assert u.by_category["compute"] == pytest.approx(2.0)
        assert u.by_category["copy"] == pytest.approx(0.5)

    def test_window_clipping(self):
        u = utilization(make_timeline(), t0=0.5, t1=2.25)
        # half of k1 (0.5) + half of c1 (0.25)
        assert u.busy == pytest.approx(0.75)

    def test_empty_timeline(self):
        u = utilization(Timeline("idle"))
        assert u.busy == 0.0
        assert u.fraction == 0.0

    def test_zero_duration_events_ignored(self):
        tl = Timeline("r")
        tl.schedule(1.0, 0.0, category=EventCategory.SYNC)
        u = utilization(tl, t0=0.0, t1=2.0)
        assert u.busy == 0.0


class TestIdleGaps:
    def test_gaps_between_events(self):
        gaps = idle_gaps(make_timeline())
        assert gaps == [(1.0, 2.0), (2.5, 4.0)]

    def test_trailing_gap_with_explicit_end(self):
        gaps = idle_gaps(make_timeline(), t1=6.0)
        assert gaps[-1] == (5.0, 6.0)

    def test_min_gap_filter(self):
        gaps = idle_gaps(make_timeline(), min_gap=1.2)
        assert gaps == [(2.5, 4.0)]

    def test_fully_idle_resource(self):
        gaps = idle_gaps(Timeline("idle"), t0=0.0, t1=3.0)
        assert gaps == [(0.0, 3.0)]

    def test_busy_resource_has_no_gaps(self):
        tl = Timeline("r")
        tl.schedule(0.0, 5.0)
        assert idle_gaps(tl) == []


class TestConcurrencyProfile:
    def test_two_overlapping_resources(self):
        a, b = Timeline("a"), Timeline("b")
        a.schedule(0.0, 2.0)
        b.schedule(1.0, 2.0)
        profile = concurrency_profile([a, b])
        assert profile == [(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_empty(self):
        assert concurrency_profile([Timeline("a")]) == []


class TestChromeTrace:
    def test_events_and_thread_names(self):
        events = chrome_trace([make_timeline()])
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta[0]["args"]["name"] == "gpu0"
        assert len(spans) == 3
        assert spans[0]["name"] == "k1"
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == pytest.approx(1e6)  # 1 s in trace us

    def test_write_loads_back_as_json(self, tmp_path):
        p = tmp_path / "trace.json"
        write_chrome_trace(p, [make_timeline()])
        data = json.loads(p.read_text())
        assert isinstance(data, list)
        assert any(e.get("cat") == "compute" for e in data)

    def test_full_run_is_traceable(self, tmp_path):
        """A real pipeline's timelines export to a valid trace."""
        from repro.harness.calibrate import SmallWorkload
        from repro.harness.runner import execute_small
        from repro.harness.spec import InSituPlacement, RunSpec
        from repro.hw.node import get_node
        from repro.sensei.execution import ExecutionMethod

        spec = RunSpec(InSituPlacement.SAME_DEVICE,
                       ExecutionMethod.LOCKSTEP, nodes=1)
        execute_small(spec, SmallWorkload(n_bodies=100, steps=2,
                                          n_coordinate_systems=1,
                                          n_variables=1))
        p = tmp_path / "run.json"
        write_chrome_trace(p, get_node().timelines())
        data = json.loads(p.read_text())
        assert any(e.get("ph") == "X" for e in data)
