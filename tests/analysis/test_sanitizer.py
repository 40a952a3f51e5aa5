"""Runtime sanitizer tests: races, use-after-free, cross-location reads.

The headline case provokes a genuine write-while-analyzing race through
:class:`AsyncRunner`: an asynchronous analysis task reads a buffer and
parks on an event; the simulation thread then mutates the buffer before
the task drains.  The sanitizer must flag the mutation.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.sanitizer import Sanitizer, Violation
from repro.errors import AllocationError, SanitizerError
from repro.hamr.allocator import Allocator
from repro.hamr.buffer import Buffer
from repro.sensei.execution import AsyncRunner


def _host_buffer(name="field"):
    return Buffer.allocate(64, allocator=Allocator.MALLOC, name=name)


def _race(buf, mutate):
    """Run ``mutate(buf)`` while an async task that read ``buf`` is parked."""
    runner = AsyncRunner(name="race")
    read_done = threading.Event()
    release = threading.Event()

    def analysis():
        _ = buf.data
        read_done.set()
        assert release.wait(timeout=5)

    runner.launch(analysis)
    try:
        assert read_done.wait(timeout=5)
        mutate(buf)
    finally:
        release.set()
        runner.drain()


class TestWriteWhileAnalyzing:
    def test_race_raises(self):
        buf = _host_buffer()
        with Sanitizer(mode="raise"):
            with pytest.raises(SanitizerError) as exc_info:
                _race(buf, lambda b: b.fill(0.0))
        details = exc_info.value.details
        assert details["kind"] == "write-while-analyzing"
        assert details["buffer"] == "field"
        assert details["device_id"] == buf.device_id
        assert details["stream_mode"] == "sync"

    def test_race_recorded(self):
        buf = _host_buffer()
        with Sanitizer(mode="record") as san:
            _race(buf, lambda b: b.fill(0.0))
        kinds = [v.kind for v in san.violations]
        assert kinds == ["write-while-analyzing"]
        assert san.violations[0].details_dict["buffer"] == "field"

    def test_free_during_analysis_is_use_after_free(self):
        buf = _host_buffer()
        with Sanitizer(mode="record") as san:
            _race(buf, lambda b: b.free())
        assert [v.kind for v in san.violations] == ["use-after-free"]

    def test_write_after_drain_is_clean(self):
        buf = _host_buffer()
        runner = AsyncRunner(name="clean")
        with Sanitizer(mode="raise") as san:
            runner.launch(lambda: buf.data.sum())
            runner.drain()
            buf.fill(0.0)  # analysis drained: no race
        assert san.violations == []


class TestUseAfterFree:
    def test_read_after_free_raises(self):
        buf = _host_buffer("wrapped")
        with Sanitizer(mode="raise"):
            buf.free()
            with pytest.raises(SanitizerError) as exc_info:
                _ = buf.data
        assert exc_info.value.details["kind"] == "use-after-free"

    def test_record_mode_preserves_original_error(self):
        """Record mode logs the violation but the program still sees the
        substrate's own AllocationError, unchanged."""
        buf = _host_buffer("wrapped")
        with Sanitizer(mode="record") as san:
            buf.free()
            with pytest.raises(AllocationError):
                _ = buf.data
        assert [v.kind for v in san.violations] == ["use-after-free"]


class TestCrossLocationRead:
    def test_device_buffer_read_from_wrong_device(self):
        # CUDA memory on device 1; the reading thread is active on
        # device 0 and the allocator is not UVA: neither side can see it.
        buf = Buffer.allocate(
            16, allocator=Allocator.CUDA, device_id=1, name="devbuf"
        )
        with Sanitizer(mode="record") as san:
            _ = buf.data
        assert [v.kind for v in san.violations] == ["cross-location-read"]
        d = san.violations[0].details_dict
        assert d["device_id"] == 1
        assert d["active_device"] == 0

    def test_host_read_is_clean(self):
        buf = _host_buffer()
        with Sanitizer(mode="record") as san:
            _ = buf.data
        assert san.violations == []
        assert any(a.op == "read" for a in san.accesses)


class TestLifecycle:
    def test_instrumentation_restored_on_exit(self):
        orig_data = Buffer.data  # lint: disable=HL001
        orig_fill = Buffer.fill
        orig_launch = AsyncRunner.launch
        with Sanitizer(mode="record"):
            assert Buffer.fill is not orig_fill
        assert Buffer.data is orig_data  # lint: disable=HL001
        assert Buffer.fill is orig_fill
        assert AsyncRunner.launch is orig_launch

    def test_only_one_active(self):
        with Sanitizer(mode="record"):
            with pytest.raises(SanitizerError):
                Sanitizer(mode="record").start()

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Sanitizer(mode="explode")

    def test_report_shape(self):
        buf = _host_buffer()
        with Sanitizer(mode="record") as san:
            _race(buf, lambda b: b.fill(1.0))
        violation = san.violations[0].to_dict()
        assert violation["kind"] == "write-while-analyzing"
        assert set(violation["details"]) >= {
            "buffer", "device_id", "stream_mode",
        }
        assert len(san.accesses) >= 1
        text = san.format_report()
        assert "write-while-analyzing" in text and "violation(s)" in text

    def test_violation_str(self):
        v = Violation(
            kind="x", message="m", sim_time=1.5, details=(("buffer", "b"),)
        )
        assert "[x]" in str(v) and "m" in str(v)
        assert v.to_dict()["details"] == {"buffer": "b"}
