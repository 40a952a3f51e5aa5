"""The canonical trace format: round trips, validation, canonical forms."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_decoded_array_is_a_read_only_view_of_the_payload(self):
        payload = encode_array(np.arange(3, dtype=np.float64))
        out = decode_array(payload)
        assert np.shares_memory(out, np.frombuffer(payload["data"], np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 99.0

    def test_a_decoded_column_re_encodes_as_its_own_bytes(self):
        payload = encode_array(np.arange(4, dtype=np.int32))
        out = decode_array(payload)
        assert encode_array(out)["data"] is payload["data"]
        part = encode_array(out[1:])  # a view of part of the bytes: a copy
        assert part["data"] == payload["data"][4:]
        assert type(part["data"]) is bytes

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


def _b64_hook(value):
    if isinstance(value, bytes):
        return base64.b64encode(value).decode("ascii")
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps_per_record(trace: Trace) -> str:
    """The writer's previous form, the oracle: one ``json.dumps`` per
    record, base64 through the ``default`` hook and the escape pass."""
    return "".join(
        json.dumps(
            r, sort_keys=True, separators=(",", ":"), allow_nan=False,
            default=_b64_hook,
        ) + "\n"
        for r in trace.records()
    )


def assert_same_text_or_both_refuse(trace: Trace) -> None:
    try:
        expected = dumps_per_record(trace)
    except (TypeError, ValueError):
        with pytest.raises(TraceFormatError):
            trace.to_jsonl()
    else:
        assert trace.to_jsonl() == expected


def with_meshes(meshes, **extra) -> Trace:
    trace = small_trace()
    trace.events[0].update(meshes=meshes, **extra)
    return trace


def column(data: bytes, dtype: str = "uint8") -> dict:
    return {"dtype": dtype, "data": data}


ODD_NAMES = ['q"uote', "back\\slash", "ünï€", "ctl\x00\x1f\n\t", "\u2028", ""]

_names = st.text(max_size=6)
_columns = st.dictionaries(
    _names,
    st.fixed_dictionaries({
        "dtype": st.sampled_from(["uint8", "float64", "int32"]),
        "data": st.binary(max_size=24),
    }),
    max_size=3,
)
_meshes = st.dictionaries(
    _names,
    _columns.map(lambda cols: {"order": sorted(cols), "columns": cols}),
    max_size=3,
)


class TestWriterBytes:
    """``to_jsonl`` writes column base64 without the escape pass, and
    every line is still exactly what ``json.dumps`` gives."""

    @pytest.mark.parametrize("meshes", [
        {},
        {"m": {"order": [], "columns": {}}},
        {"m": {"order": ["x"], "columns": {"x": column(b"")}}},
        {
            "a": {"order": ["x", "y"], "columns": {
                "y": column(np.arange(3.0).tobytes(), "float64"),
                "x": column(b"\x00\xff" * 7),
            }},
            "b": {"order": ["z"], "columns": {"z": column(b"\x01")}},
        },
        {
            name: {"order": ODD_NAMES, "columns": {
                col: column(col.encode("utf-8")) for col in ODD_NAMES
            }}
            for name in ODD_NAMES
        },
        {"m": {"order": ["x"], "columns": {"x": column(b"1")}, "note": [b"2"]}},
        {1: {"order": [], "columns": {}}},
    ], ids=[
        "empty", "no-columns", "zero-length-column", "several-meshes",
        "odd-names", "extra-keys", "int-key",
    ])
    def test_publish_record_matches_json_dumps(self, meshes):
        assert_same_text_or_both_refuse(with_meshes(meshes))

    def test_records_without_meshes_match_json_dumps(self):
        trace = small_trace()
        trace.events[1]["odd"] = {name: name for name in ODD_NAMES}
        assert_same_text_or_both_refuse(trace)

    @pytest.mark.parametrize("bad", [
        {"entry": float("nan")},
        {"entry": float("inf")},
        {"meshes": {"m": {"order": [], "columns": {}, "t": float("-inf")}}},
        {"meshes": {"m": {"order": ["x"], "columns": {
            "x": column(bytearray(b"x")),
        }}}},
        {"meshes": {"m": object()}},
        {"meshes": {1: {}, "a": {}}},
    ], ids=["nan", "inf", "nested-inf", "bytearray", "object", "mixed-keys"])
    def test_unserializable_publish_records_are_refused(self, bad):
        trace = with_meshes({})
        trace.events[0].update(bad)
        with pytest.raises(TraceFormatError, match="not canonically"):
            trace.to_jsonl()
        with pytest.raises((TypeError, ValueError)):
            dumps_per_record(trace)

    @given(
        meshes=_meshes,
        entry=st.floats(allow_nan=True, allow_infinity=True),
        name=_names,
    )
    def test_any_publish_record_matches_json_dumps(self, meshes, entry, name):
        assert_same_text_or_both_refuse(
            with_meshes(meshes, entry=entry, pipeline=name)
        )


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
        config no longer has, version 4 headers ``on``/``off``/``freeze``
        switch strings and three partitioner keys, version 5 headers the
        ``execution``/``placement``/``pool`` switches and ``obs`` events
        an ``origin``; refuse all three up front, naming found and
        supported versions."""
        for old in (3, 4, 5):
            trace = small_trace()
            trace.header["version"] = old
            with pytest.raises(TraceVersionError, match=f"{old}.*6") as e:
                Trace.from_jsonl(trace.to_jsonl())
            assert e.value.details == {"found": old, "supported": 6}

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

    def test_a_bad_record_names_its_line(self):
        table = TableData("m")
        table.add_host_column("x", np.zeros(1))
        trace = small_trace()
        trace.events[0]["meshes"] = {"m": encode_table(table)}
        lines = trace.to_jsonl().splitlines(keepends=True)
        for bad, match in [
            ("not json\n", "line 4: invalid JSON"),
            ("[1, 2]\n", "line 4: trace records are objects"),
            (lines[1].replace("AAAAAAAAAAA=", "!!!"), "line 4: bad column"),
        ]:
            text = "".join([lines[0], "\n", "  \n", bad, *lines[2:]])
            with pytest.raises(TraceFormatError, match=match):
                Trace.from_jsonl(text)

    def test_blank_lines_and_a_missing_final_newline_parse(self):
        trace = small_trace()
        text = trace.to_jsonl()
        for variant in (
            text.replace("\n", "\n\n"),
            "\n \t\n" + text + "   \n\n",
            text.rstrip("\n"),
        ):
            assert Trace.from_jsonl(variant) == trace

    def test_crlf_lines_parse_and_a_lone_cr_ends_no_line(self):
        """A line ends at LF; the CR of a CRLF is JSON whitespace, so such
        a trace parses to the same records and counts lines the same."""
        trace = small_trace()
        text = trace.to_jsonl()
        assert Trace.from_jsonl(text.replace("\n", "\r\n")) == trace
        crlf = text.replace("\n", "\r\n").replace('"kind":"obs"', "x", 1)
        with pytest.raises(TraceFormatError, match="line 3: invalid JSON"):
            Trace.from_jsonl(crlf)
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
            Trace.from_jsonl(text.replace("\n", "\r"))

    def test_footer_count_mismatch(self):
        trace = small_trace()
        lines = trace.to_jsonl().splitlines(keepends=True)
        # Drop one event but keep the original footer counts.
        with pytest.raises(TraceFormatError):
            Trace.from_jsonl("".join(lines[:1] + lines[2:]))
