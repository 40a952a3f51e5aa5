"""The canonical trace format: round trips, validation, canonical forms."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.control.governors import Decision
from repro.control.signals import StepObservation
from repro.errors import TraceError, TraceFormatError, TraceVersionError
from repro.svtk.table import TableData
from repro.trace.format import (
    TRACE_VERSION,
    Trace,
    TraceEvent,
    canonical_decision,
    canonical_float,
    canonical_observation,
    decode_array,
    decode_table,
    encode_array,
    encode_table,
)


def small_trace() -> Trace:
    header = {
        "kind": "header", "version": TRACE_VERSION, "name": "t",
        "meta": {}, "m": 1, "n": 1, "service": {}, "cost": None,
        "control": None,
    }
    events = [
        TraceEvent("publish", rank=0, seq=0,
                   body=(("entry", 0.5), ("step", 1))).to_dict(),
        TraceEvent("obs", rank=0, seq=1, body=(("step", 1),)).to_dict(),
    ]
    counters = [{"kind": "counters", "rank": 0, "pipeline": "t", "steps": 1}]
    return Trace(header=header, events=events, counters=counters)


class TestCanonicalForms:
    def test_canonical_float_nine_digits(self):
        assert canonical_float(0.123456789123) == 0.123456789
        assert canonical_float(1.0) == 1.0
        # Survives a JSON round trip bit-exactly.
        v = canonical_float(3.14159265358979)
        assert json.loads(json.dumps(v)) == v

    def test_canonical_decision_drops_time(self):
        d = Decision(
            governor="codec", step=3, time=12.5, action="codec=zlib",
            reason="why", args=(("ratio", 4.123456789123), ("n", 2)),
        )
        out = canonical_decision(d)
        assert "time" not in out
        assert out["governor"] == "codec"
        assert out["args"] == {"n": 2, "ratio": 4.12345679}
        # Accepts the dict form too, identically.
        assert canonical_decision(d.to_dict()) == out

    def test_canonical_flow_decision_drops_measured_signals(self):
        d = Decision(
            governor="flow", step=2, time=1.0, action="credits=8",
            reason="retry_rate 0.3", args=(
                ("credits", 8), ("retry_rate", 0.3),
                ("ack_latency", 1e-5), ("inflight_peak", 4),
            ),
        )
        out = canonical_decision(d)
        assert "reason" not in out
        assert out["args"] == {"credits": 8}

    def test_canonical_observation(self):
        obs = StepObservation(
            step=4, t=9.9, payload_bytes=100, wire_bytes=50, retries=2,
            compression_ratio=2.000000001234, extras=(("codec", "zlib"),),
        )
        out = canonical_observation(obs)
        assert out == {
            "step": 4, "payload_bytes": 100, "wire_bytes": 50,
            "retries": 2, "ratio": 2.0, "codec": "zlib",
        }


class TestArrayCodec:
    def test_round_trip_dtypes(self):
        for arr in (
            np.arange(7, dtype=np.int64),
            np.linspace(0.0, 1.0, 13),
            np.array([1, 2, 3], dtype=np.int32),
        ):
            out = decode_array(encode_array(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_decoded_array_is_writable(self):
        out = decode_array(encode_array(np.arange(3, dtype=np.float64)))
        out[0] = 99.0
        assert out[0] == 99.0

    def test_rejects_2d(self):
        with pytest.raises(TraceFormatError):
            encode_array(np.zeros((2, 2)))

    def test_columns_are_raw_little_endian_bytes(self):
        payload = encode_array(np.array([1, 2], dtype=">i4"))
        assert payload == {"dtype": "int32", "data": b"\x01\0\0\0\x02\0\0\0"}

    def test_rejects_bad_payloads(self):
        with pytest.raises(TraceFormatError):
            decode_array({"dtype": "float64", "data": "AAAAAAAAAAA="})  # text
        with pytest.raises(TraceFormatError):
            decode_array({"dtype": "float64", "data": b"\0\0\0"})  # 3 bytes
        with pytest.raises(TraceFormatError):
            decode_array({"data": b"\0" * 8})

    def test_table_round_trip_preserves_column_order(self):
        table = TableData("m")
        table.add_host_column("zeta", np.arange(4, dtype=np.float64))
        table.add_host_column("alpha", np.arange(4, dtype=np.int64))
        out = decode_table("m", encode_table(table))
        assert out.column_names == ("zeta", "alpha")
        np.testing.assert_array_equal(
            out.column("zeta").as_numpy_host(),
            table.column("zeta").as_numpy_host(),
        )

    def test_table_rejects_missing_column(self):
        payload = encode_table(
            TableData("m")
        )
        payload["order"] = ["ghost"]
        with pytest.raises(TraceFormatError):
            decode_table("m", payload)


class TestTraceEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceEvent("bogus", rank=0, seq=0)

    def test_to_dict_merges_body(self):
        e = TraceEvent("fin", rank=1, seq=2, body=(("pipeline", "p"),))
        assert e.to_dict() == {
            "kind": "fin", "rank": 1, "seq": 2, "pipeline": "p",
        }


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        trace = small_trace()
        text = trace.to_jsonl()
        back = Trace.from_jsonl(text)
        assert back.header == trace.header
        assert back.events == trace.events
        assert back.counters == trace.counters
        assert back.to_jsonl() == text

    def test_jsonl_is_canonical(self):
        text = small_trace().to_jsonl()
        assert text.endswith("\n")
        for line in text.splitlines():
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_records_sorted_by_rank_seq(self):
        trace = small_trace()
        trace.events = list(reversed(trace.events))
        records = trace.records()
        assert [r["seq"] for r in records[1:3]] == [0, 1]
        assert trace.ranks == (0,)

    def test_nan_rejected(self):
        trace = small_trace()
        trace.events[0]["entry"] = float("nan")
        with pytest.raises(TraceFormatError):
            trace.to_jsonl()

    def test_only_bytes_serialize_beyond_json(self):
        trace = small_trace()
        trace.events[0]["entry"] = bytearray(b"x")
        with pytest.raises(TraceFormatError, match="bytearray"):
            trace.to_jsonl()

    def test_column_bytes_are_base64_in_the_text_only(self):
        table = TableData("m")
        table.add_host_column("x", np.arange(3, dtype=np.float64))
        trace = small_trace()
        trace.events[0]["meshes"] = {"m": encode_table(table)}
        text = trace.to_jsonl()
        assert '"data":"AAAAAAAAAAAAAAAAAADwPwAAAAAAAABA"' in text
        back = Trace.from_jsonl(text)
        assert back == trace
        column = back.events[0]["meshes"]["m"]["columns"]["x"]
        assert column["data"] == np.arange(3.0).tobytes()


class TestTraceValidation:
    def test_bad_json_line(self):
        with pytest.raises(TraceFormatError) as e:
            Trace.from_jsonl("not json\n")
        assert "line 1" in str(e.value)

    def test_missing_header(self):
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl('{"kind":"footer","events":0,"counters":0}\n')
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl("")

    def test_version_skew_is_structured(self):
        trace = small_trace()
        trace.header["version"] = TRACE_VERSION + 1
        with pytest.raises(TraceVersionError) as e:
            Trace.from_jsonl(trace.to_jsonl())
        assert e.value.details["found"] == TRACE_VERSION + 1
        assert e.value.details["supported"] == TRACE_VERSION
        assert isinstance(e.value, TraceError)

    def test_previous_version_is_refused_by_number(self):
        """Version 3 headers carried nine ``control`` keys this build's
        config no longer has; refuse them up front, naming both."""
        trace = small_trace()
        trace.header["version"] = 3
        with pytest.raises(TraceVersionError, match="3.*4") as e:
            Trace.from_jsonl(trace.to_jsonl())
        assert e.value.details == {"found": 3, "supported": 4}

    def test_missing_footer(self):
        text = small_trace().to_jsonl()
        body = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl(body)

    def test_unknown_record_kind(self):
        trace = small_trace()
        text = trace.to_jsonl().replace('"kind":"obs"', '"kind":"wat"')
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl(text)

    def test_event_needs_integer_rank_seq(self):
        text = small_trace().to_jsonl().replace(
            '"kind":"obs","rank":0', '"kind":"obs","rank":"zero"'
        )
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl(text)

    def test_column_text_must_be_base64(self):
        table = TableData("m")
        table.add_host_column("x", np.zeros(1))
        trace = small_trace()
        trace.events[0]["meshes"] = {"m": encode_table(table)}
        text = trace.to_jsonl().replace("AAAAAAAAAAA=", "!!!not-base64!")
        with pytest.raises(TraceFormatError, match="bad column payload"):
            Trace.from_jsonl(text)

    def test_footer_count_mismatch(self):
        trace = small_trace()
        lines = trace.to_jsonl().splitlines(keepends=True)
        # Drop one event but keep the original footer counts.
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl("".join(lines[:1] + lines[2:]))
