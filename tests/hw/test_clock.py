"""Tests for the discrete-event time substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hw.clock import (
    EventCategory,
    SimClock,
    TimedEvent,
    Timeline,
    merge_events,
)
from repro.hw.trace import utilization


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        c = SimClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == 2.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_wait_for_moves_forward(self):
        c = SimClock()
        assert c.wait_for(3.0) == 3.0
        assert c.now == 3.0

    def test_wait_for_never_moves_backward(self):
        c = SimClock(10.0)
        c.wait_for(3.0)
        assert c.now == 10.0



class TestTimedEvent:
    """The event record's contract: what code that sorts, compares or
    reads events relies on."""

    def test_field_names(self):
        ev = TimedEvent(start=1.0, end=2.0, seq=7, name="k",
                        category=EventCategory.COPY, resource="gpu0")
        assert (ev.start, ev.end, ev.seq, ev.name, ev.category, ev.resource) == (
            1.0, 2.0, 7, "k", EventCategory.COPY, "gpu0"
        )
        assert ev.duration == 1.0
        bare = TimedEvent(0.0, 1.0, 3)
        assert (bare.name, bare.category, bare.resource) == (
            "", EventCategory.OTHER, ""
        )

    def test_sorts_by_start_end_seq(self):
        a = TimedEvent(0.0, 2.0, 9, name="z")
        b = TimedEvent(0.0, 1.0, 8, name="y")
        c = TimedEvent(0.0, 1.0, 5, name="x", category=EventCategory.COMPUTE)
        d = TimedEvent(-1.0, 5.0, 1, name="w")
        assert sorted([a, b, c, d]) == [d, c, b, a]

    def test_rejects_assignment(self):
        ev = TimedEvent(0.0, 1.0, 0)
        for field in ("start", "end", "seq", "name", "category", "resource"):
            with pytest.raises(AttributeError):
                setattr(ev, field, 5)
        assert ev.start == 0.0 and ev.end == 1.0


class TestTimeline:
    def test_schedule_from_idle(self):
        tl = Timeline("gpu0")
        ev = tl.schedule(1.0, 2.0, name="k")
        assert ev.start == 1.0
        assert ev.end == 3.0
        assert tl.available_at == 3.0

    def test_back_to_back_serialize(self):
        tl = Timeline("gpu0")
        a = tl.schedule(0.0, 1.0)
        b = tl.schedule(0.0, 1.0)  # issued at 0 but resource busy until 1
        assert b.start == a.end
        assert b.end == 2.0

    def test_idle_gap_preserved(self):
        tl = Timeline("gpu0")
        tl.schedule(0.0, 1.0)
        ev = tl.schedule(5.0, 1.0)
        assert ev.start == 5.0

    def test_zero_duration_allowed(self):
        tl = Timeline("r")
        ev = tl.schedule(1.0, 0.0)
        assert ev.start == ev.end == 1.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline("r").schedule(0.0, -0.1)

    def test_busy_time_by_category(self):
        tl = Timeline("r")
        tl.schedule(0.0, 1.0, category=EventCategory.COMPUTE)
        tl.schedule(0.0, 2.0, category=EventCategory.COPY)
        use = utilization(tl)
        assert use.busy == pytest.approx(3.0)
        assert use.by_category["compute"] == pytest.approx(1.0)
        assert use.by_category["copy"] == pytest.approx(2.0)

    def test_event_overlap_predicate(self):
        tl = Timeline("r")
        a = tl.schedule(0.0, 2.0)
        b = tl.schedule(0.0, 2.0)
        assert b.start >= a.end  # serialized on one resource
        tl2 = Timeline("r2")
        c = tl2.schedule(1.0, 2.0)
        assert a.start < c.end and c.start < a.end

    def test_merge_events_sorted(self):
        t1, t2 = Timeline("a"), Timeline("b")
        t1.schedule(0.0, 1.0, name="x")
        t2.schedule(0.5, 1.0, name="y")
        t1.schedule(3.0, 1.0, name="z")
        assert [e.name for e in merge_events([t1, t2])] == ["x", "y", "z"]


@given(durs=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
def test_timeline_never_overlaps_and_is_monotone(durs):
    """Property: events on one timeline are disjoint and ordered."""
    tl = Timeline("r")
    for d in durs:
        tl.schedule(0.0, d)
    evs = tl.events
    for prev, nxt in zip(evs, evs[1:]):
        assert prev.end <= nxt.start
    assert tl.available_at == evs[-1].end


@given(
    moves=st.lists(
        st.tuples(st.sampled_from(["advance", "wait"]), st.floats(0, 100)),
        max_size=50,
    )
)
def test_clock_is_monotone(moves):
    """Property: a clock never runs backward under any op sequence."""
    c = SimClock()
    prev = 0.0
    for kind, x in moves:
        if kind == "advance":
            c.advance(x)
        else:
            c.wait_for(x)
        assert c.now >= prev
        prev = c.now
