"""Property tests: fixpoints over arbitrary seeded runs, robust parsing.

Two families:

- **Fixpoint**: for *any* seeded scenario configuration, record →
  replay → re-record is the identity on trace bytes.
- **Robustness**: arbitrary corruption of a valid trace — field type
  skew, version skew, truncation, record deletion — raises a
  structured :class:`TraceError` subclass, never an unstructured
  crash and never a silently-wrong trace.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.plan import ControlConfig
from repro.errors import TraceError, TraceFormatError
from repro.mpi.comm import CommCostModel
from repro.service.plan import ServiceConfig
from repro.trace import TRACE_VERSION, Trace, replay_trace
from repro.trace.configs import decode_config, encode_config
from repro.trace.format import canonical_float
from repro.transport.config import TransportConfig
from repro.workloads.zoo import record_zoo

# Scenario cost is 0.01-0.05 s each; keep the example budget modest.
FIXPOINT_SETTINGS = dict(max_examples=8, deadline=None)


class TestFixpointProperties:
    @settings(**FIXPOINT_SETTINGS)
    @given(
        name=st.sampled_from(["codec", "stencil", "request-stream"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_record_replay_rerecord_is_identity(self, name, seed):
        recorded = record_zoo(name, seed=seed)[0].to_jsonl()
        assert replay_trace(recorded).trace.to_jsonl() == recorded

    @settings(**FIXPOINT_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_parse_roundtrip_any_seed(self, seed):
        text = record_zoo("codec", seed=seed)[0].to_jsonl()
        assert Trace.from_jsonl(text).to_jsonl() == text

    @settings(max_examples=20, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    def test_canonical_float_is_idempotent_and_json_stable(self, value):
        c = canonical_float(value)
        assert canonical_float(c) == c
        assert json.loads(json.dumps(c)) == c


class TestConfigRoundTrips:
    def test_service_config_roundtrip(self):
        from repro.workloads.zoo import zoo_entry

        for name in ("newton", "request-stream", "flow"):
            entry = zoo_entry(name, seed=3)
            for tp, config in (
                (ServiceConfig, entry["config"]),
                (ControlConfig | None, entry.get("control")),
                (CommCostModel | None, entry.get("cost")),
            ):
                payload = encode_config(config)
                assert encode_config(decode_config(tp, payload)) == payload

    def test_transport_roundtrip_preserves_faults(self):
        t = TransportConfig(compression="zlib", chunk_bytes=512).with_faults(
            drop=0.1, duplicate=0.05, seed=42,
            congestion_bytes=4096, congestion_drop=0.25,
        )
        payload = encode_config(t)
        back = decode_config(TransportConfig, payload)
        assert encode_config(back) == payload
        assert back.faults.drop == t.faults.drop
        assert back.faults.seed == t.faults.seed

    def test_bad_section_is_structured(self):
        with pytest.raises(TraceFormatError) as err:
            decode_config(
                TransportConfig, {"compression": "zlib", "retry": "nope"}
            )
        assert err.value.details["section"] == "transport"


def _valid_lines():
    trace = record_zoo("codec", seed=1)[0]
    return trace.to_jsonl().splitlines()


_LINES = _valid_lines()


class TestCorruptionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(_LINES) - 1),
        data=st.data(),
    )
    def test_field_skew_never_crashes_unstructured(self, index, data):
        record = json.loads(_LINES[index])
        key = data.draw(st.sampled_from(sorted(record)))
        record[key] = data.draw(
            st.one_of(st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
        )
        lines = list(_LINES)
        lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        text = "\n".join(lines) + "\n"
        try:
            replay_trace(text)
        except TraceError:
            pass  # structured rejection is the contract
        # Acceptance is fine too: not every field is load-bearing
        # (e.g. meta values) — the property is "no unstructured crash".

    @settings(max_examples=20, deadline=None)
    @given(drop=st.integers(min_value=0, max_value=len(_LINES) - 1))
    def test_any_single_record_deletion_is_detected(self, drop):
        lines = [l for i, l in enumerate(_LINES) if i != drop]
        with pytest.raises(TraceError):
            Trace.from_jsonl("\n".join(lines) + "\n")

    @settings(max_examples=20, deadline=None)
    @given(
        version=st.integers(min_value=-3, max_value=200).filter(
            lambda v: v != TRACE_VERSION
        )
    )
    def test_any_version_skew_is_detected(self, version):
        header = json.loads(_LINES[0])
        header["version"] = version
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines += _LINES[1:]
        with pytest.raises(TraceError) as err:
            Trace.from_jsonl("\n".join(lines) + "\n")
        assert isinstance(err.value.details, dict)
