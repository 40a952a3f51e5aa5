"""Deterministic trace record/replay for the in-transit service.

A recorded trace captures everything one seeded service run does on
the producer side — the published tables (exact bytes), the publish
cadence (simulated entry times), pipeline fins, the control plane's
canonical decisions and step observations, and the end-of-run wire
counters — in a versioned, sorted-key JSONL format with no wall-clock
content.  Replaying the trace pushes the identical traffic back
through :func:`repro.service.run_service`, and re-recording the replay
reproduces the trace byte-for-byte; CI pins golden traces on that
fixpoint so behavioral drift in the transport or control planes shows
up as a byte diff.

- :mod:`repro.trace.format` — the canonical record schema and the
  :class:`Trace` container;
- :mod:`repro.trace.configs` — round-trip config (de)serialization
  for the trace header;
- :mod:`repro.trace.recorder` — the ``run_service(recorder=...)`` tap;
- :mod:`repro.trace.replayer` — scripted replay + re-record;
- :mod:`repro.trace.harness` — a fresh substrate per run and the
  canonical form of a decision, which the determinism suites compare.
"""

from repro.trace.format import (
    EVENT_KINDS,
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
from repro.trace.recorder import (
    RankSink,
    RecordingBridge,
    TraceRecorder,
    record_service_run,
)
from repro.trace.replayer import ReplayResult, SinkAnalysis, replay_trace
from repro.trace.harness import fresh_substrate

__all__ = [
    "TRACE_VERSION",
    "EVENT_KINDS",
    "Trace",
    "TraceEvent",
    "canonical_decision",
    "canonical_float",
    "canonical_observation",
    "encode_array",
    "decode_array",
    "encode_table",
    "decode_table",
    "RankSink",
    "RecordingBridge",
    "TraceRecorder",
    "record_service_run",
    "ReplayResult",
    "SinkAnalysis",
    "replay_trace",
    "fresh_substrate",
]
