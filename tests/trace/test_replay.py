"""Record→replay→re-record fixpoints across the workload zoo.

The acceptance contract: a trace recorded from any seeded zoo workload
replays *bit-identically* — decision logs, retry counters, and
simulated time stamps equal between the recorded run and its replay,
and between independent re-recordings of the same seeded run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError, TraceVersionError
from repro.trace import TRACE_VERSION, Trace, fresh_substrate, replay_trace
from repro.workloads.zoo import record_zoo
from tests.support import GOLDEN_SCENARIOS, ZOO_WORKLOADS, diff_traces

ALL_SCENARIOS = tuple(ZOO_WORKLOADS) + tuple(GOLDEN_SCENARIOS)


def decisions_of(trace: Trace) -> list:
    return [e for e in trace.events if e["kind"] == "decision"]


def retries_of(trace: Trace) -> list:
    return [
        (c["rank"], c["pipeline"], c["retries"]) for c in trace.counters
    ]


def entries_of(trace: Trace) -> list:
    return [
        (e["rank"], e["seq"], e["entry"])
        for e in trace.events if e["kind"] in ("publish", "fin")
    ]


class TestZooReplayFixpoint:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_replay_is_byte_identical(self, name):
        trace, _producers, _endpoints = record_zoo(name, seed=3)
        recorded = trace.to_jsonl()
        fresh_substrate()
        replayed = replay_trace(recorded).trace
        assert replayed.to_jsonl() == recorded, "\n".join(
            diff_traces(trace, replayed)
        )
        # The contract, spelled out: decisions, retry counters, and
        # simulated publish stamps all survive the replay exactly.
        assert decisions_of(replayed) == decisions_of(trace)
        assert retries_of(replayed) == retries_of(trace)
        assert entries_of(replayed) == entries_of(trace)

    @pytest.mark.parametrize("name", ZOO_WORKLOADS)
    def test_re_recording_is_byte_identical(self, name):
        first, _p, _e = record_zoo(name, seed=5)
        second, _p, _e = record_zoo(name, seed=5)
        assert first.to_jsonl() == second.to_jsonl(), "\n".join(
            diff_traces(first, second)
        )

    def test_different_seeds_differ(self):
        a, _p, _e = record_zoo("stencil", seed=1)
        b, _p, _e = record_zoo("stencil", seed=2)
        assert a.to_jsonl() != b.to_jsonl()

    def test_zoo_covers_four_structural_shapes(self):
        assert set(ZOO_WORKLOADS) == {
            "newton", "stencil", "particle", "request-stream",
        }

    def test_unknown_scenario_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            record_zoo("no-such-workload")


class TestReplaySemantics:
    def test_replay_delivers_payloads_to_endpoints(self):
        trace, _p, recorded_endpoints = record_zoo("stencil", seed=3)
        fresh_substrate()
        result = replay_trace(trace.to_jsonl())
        assert [e.steps_processed for e in result.endpoints] == [
            e.steps_processed for e in recorded_endpoints
        ]

    def test_replayed_tables_are_bit_exact(self):
        from repro.trace.format import decode_table

        trace, _p, _e = record_zoo("particle", seed=3)
        publishes = [
            e for e in trace.events if e["rank"] == 0 and e["kind"] == "publish"
        ]
        assert publishes
        table = decode_table(
            "particles", publishes[0]["meshes"]["particles"]
        )
        assert table.column_names == ("id", "x")
        assert table.column("x").as_numpy_host().dtype == np.float64


class TestRecordedColumns:
    def test_recorded_trace_holds_bytes_and_round_trips_equal(self):
        trace, _p, _e = record_zoo("particle", seed=3)
        publishes = [e for e in trace.events if e["kind"] == "publish"]
        assert publishes
        for event in publishes:
            for mesh in event["meshes"].values():
                for column in mesh["columns"].values():
                    assert type(column["data"]) is bytes
        assert Trace.from_jsonl(trace.to_jsonl()) == trace


class TestReplayErrors:
    def test_version_skew_raises_structured(self):
        trace, _p, _e = record_zoo("codec", seed=0)
        text = trace.to_jsonl().replace(
            f'"version":{TRACE_VERSION}', '"version":99'
        )
        with pytest.raises(TraceVersionError) as err:
            replay_trace(text)
        assert err.value.details["found"] == 99

    def test_malformed_header_config_raises_structured(self):
        trace, _p, _e = record_zoo("codec", seed=0)
        trace.header["service"] = {"budget": "not-a-service"}
        with pytest.raises(TraceFormatError) as err:
            replay_trace(trace)
        assert err.value.details["section"] == "service"

    def test_non_string_governor_raises_structured(self):
        """The Hypothesis finding: ``["codec"]`` is not a governor name."""
        trace, _p, _e = record_zoo("codec", seed=0)
        decision = decisions_of(trace)[0]
        decision["governor"] = ["codec"]
        with pytest.raises(TraceFormatError) as err:
            replay_trace(trace)
        assert err.value.details == {
            "kind": "decision", "rank": decision["rank"],
            "seq": decision["seq"], "field": "governor",
        }

    def test_truncated_trace_raises(self):
        trace, _p, _e = record_zoo("codec", seed=0)
        lines = trace.to_jsonl().splitlines(keepends=True)
        with pytest.raises(TraceFormatError):
            replay_trace("".join(lines[:-2]))


class TestDiffTraces:
    """The record-level differ behind the golden gate's error message."""

    def test_identical_traces_diff_empty(self):
        trace, _p, _e = record_zoo("codec", seed=4)
        assert diff_traces(trace, trace) == []

    def test_divergence_names_the_first_bad_record(self):
        a, _p, _e = record_zoo("codec", seed=4)
        b = Trace.from_jsonl(a.to_jsonl())
        b.events[1]["retries"] = 99
        lines = diff_traces(a, b)
        assert len(lines) == 1
        assert lines[0].startswith("record 2:")  # header is record 0

    def test_length_mismatch_reports_missing_records(self):
        a, _p, _e = record_zoo("codec", seed=4)
        b = Trace.from_jsonl(a.to_jsonl())
        del b.events[-1]
        assert any("<missing>" in line for line in diff_traces(a, b))

    def test_limit_truncates_long_diffs(self):
        a, _p, _e = record_zoo("codec", seed=4)
        b = Trace.from_jsonl(a.to_jsonl())
        for event in b.events:
            event["seq"] = event["seq"] + 1000
        lines = diff_traces(a, b, limit=3)
        assert len(lines) == 4
        assert lines[-1] == "... (diff truncated)"
