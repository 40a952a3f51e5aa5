"""The canonical trace format: versioned, sorted-key JSONL, no wall clock.

A *trace* is the deterministic record of one producer-side service
run: the traffic pattern (which tables each producer published at
which simulated time), the membership events (pipeline fins), the
canonicalized step observations and governor decisions, and the final
per-pipeline wire counters.  Everything in a trace is a pure function
of the run's seeds and configuration — wall-clock readings, thread
arrival order, and measured signals that carry scheduling jitter are
excluded *by construction*, so a trace recorded twice from the same
seeded run is byte-identical, and a replayed trace re-records to the
same bytes (the fixpoint property the golden-trace gate enforces).

Serialization is one JSON object per line with sorted keys and compact
separators: the header first, then every rank's event stream in
``(rank, seq)`` order, then the per-rank counters, then a footer with
the record counts.  Floats rely on JSON's shortest-round-trip ``repr``
so values survive a dump/load cycle bit-exactly.  A column payload is
its raw little-endian ``bytes`` in a :class:`Trace`, recorded or
parsed alike; base64 exists only in the JSONL text.

Canonicalization mirrors the determinism suites' contract:

- decision records drop the ``time`` stamp (transport-coupled
  decisions are logged at clock readings that carry sub-millisecond
  ack-arrival jitter) and normalize measured floats to 9 significant
  digits;
- ``flow`` decisions additionally drop the reason string and the
  measured-signal args (``retry_rate``, ``ack_latency``,
  ``inflight_peak``): ack latencies are measured across two ranks'
  clocks, so only the AIMD *trajectory* is contractual;
- step observations keep the fields that are pure functions of the
  seeds (step, payload/wire bytes, retries, compression ratio, codec)
  and drop the clock-coupled ones (``t``, ``ack_latency``,
  ``inflight_peak``, ``transfer_time``).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from repro.control.governors import Governor
from repro.errors import TraceFormatError, TraceVersionError
from repro.svtk.table import TableData

__all__ = [
    "TRACE_VERSION",
    "EVENT_KINDS",
    "TraceEvent",
    "Trace",
    "canonical_float",
    "canonical_decision",
    "canonical_observation",
    "encode_array",
    "decode_array",
    "encode_table",
    "decode_table",
]

#: Format version stamped into every header; bumped on any change to
#: the record schema.  Loading a trace with a different version raises
#: :class:`~repro.errors.TraceVersionError`.
TRACE_VERSION = 4

#: Per-rank stream record kinds, in the order they may appear.
EVENT_KINDS = ("publish", "fin", "obs", "decision")

#: Step-observation fields that are pure functions of the run's seeds.
_OBS_FIELDS = ("payload_bytes", "wire_bytes", "retries")


def canonical_float(value: float) -> float:
    """A float normalized to 9 significant digits.

    Measured values (byte ratios, charged seconds) reproduce to ~1e-16
    relative between reruns; 9 significant digits is the determinism
    suites' canonical precision and is exact under JSON round-trip.
    """
    return float(f"{float(value):.9g}")


def canonical_decision(decision) -> dict:
    """A governor decision in canonical (replay-stable) form.

    Accepts a :class:`repro.control.governors.Decision` or its
    ``to_dict()`` form.  Drops the clock stamp, normalizes float args,
    and scrubs what the governor's class declares measured
    (``Governor.measured_args``, and the free-text reason quoting them).
    """
    raw = decision if isinstance(decision, dict) else decision.to_dict()
    out = {
        "governor": str(raw["governor"]),
        "step": int(raw["step"]),
        "action": str(raw["action"]),
        "reason": str(raw["reason"]),
        "applied": bool(raw["applied"]),
    }
    args = {
        k: canonical_float(v) if isinstance(v, float) else v
        for k, v in sorted(dict(raw["args"]).items())
    }
    measured = Governor.named(out["governor"]).measured_args
    if measured:
        out.pop("reason", None)
        for key in measured:
            args.pop(key, None)
    out["args"] = args
    return out


def canonical_observation(obs) -> dict:
    """A step observation reduced to its deterministic fields."""
    out = {"step": int(obs.step)}
    for name in _OBS_FIELDS:
        out[name] = int(getattr(obs, name, 0))
    out["ratio"] = canonical_float(getattr(obs, "compression_ratio", 1.0))
    extras = dict(getattr(obs, "extras", ()) or ())
    out["codec"] = str(extras.get("codec", ""))
    return out


def encode_array(values: np.ndarray) -> dict:
    """One 1-D column as dtype + its raw little-endian bytes (bit-exact)."""
    arr = np.ascontiguousarray(np.asarray(values))
    if arr.ndim != 1:
        raise TraceFormatError(
            f"trace columns are 1-D; got shape {arr.shape}"
        )
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(arr.dtype.name),
        "data": little.tobytes(),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (a fresh writable array)."""
    try:
        dtype = np.dtype(payload["dtype"])
        little = np.frombuffer(payload["data"], dtype=dtype.newbyteorder("<"))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad column payload: {exc}") from None
    return little.astype(dtype, copy=True)


def encode_table(table: TableData) -> dict:
    """One table's columns, with insertion order preserved explicitly.

    Column order is wire-significant (it changes the serialized bytes
    and hence compressed sizes), and canonical JSON sorts object keys —
    so the order rides in its own list.
    """
    return {
        "order": list(table.column_names),
        "columns": {
            name: encode_array(table.column(name).as_numpy_host())
            for name in table.column_names
        },
    }


def decode_table(name: str, payload: dict) -> TableData:
    """Inverse of :func:`encode_table`."""
    try:
        order = list(payload["order"])
        columns = payload["columns"]
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"bad table payload: {exc}") from None
    table = TableData(name)
    for col in order:
        if col not in columns:
            raise TraceFormatError(
                f"table order names missing column {col!r}"
            )
        table.add_host_column(col, decode_array(columns[col]))
    return table


@dataclass(frozen=True)
class TraceEvent:
    """One record of a rank's event stream, in canonical form.

    ``body`` is the record's payload as sorted ``(key, value)`` tuples
    — the same structured-args shape governor decisions use.  Sorting
    here is what makes a record's bytes independent of the order its
    producer filled it; the golden traces in ``tests/golden`` re-record
    byte for byte to keep it so.
    """

    kind: str
    rank: int
    seq: int
    body: tuple = ()

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise TraceFormatError(
                f"unknown trace event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "rank": self.rank, "seq": self.seq}
        out.update(self.body)
        return out


def _b64encode(value) -> str:
    """``json.dumps`` hook: column bytes become base64 text."""
    if isinstance(value, bytes):
        return base64.b64encode(value).decode("ascii")
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _b64decode(record: dict) -> None:
    """Inverse of :func:`_b64encode` over a parsed record's columns."""
    try:
        for mesh in record.get("meshes", {}).values():
            for column in mesh["columns"].values():
                column["data"] = base64.b64decode(column["data"], validate=True)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad column payload: {exc}") from None


def _dump_record(record: dict) -> str:
    try:
        return json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False,
            default=_b64encode,
        )
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"trace record is not canonically serializable: {exc}"
        ) from None


@dataclass
class Trace:
    """A parsed (or freshly recorded) trace: header, events, counters.

    ``events`` hold every per-rank stream record sorted by
    ``(rank, seq)``; ``counters`` the end-of-run per-pipeline wire
    counters sorted by ``(rank, pipeline)``.
    """

    header: dict
    events: list
    counters: list

    @property
    def version(self) -> int:
        return int(self.header.get("version", -1))

    @property
    def name(self) -> str:
        return str(self.header.get("name", ""))

    @property
    def ranks(self) -> tuple:
        return tuple(sorted({e["rank"] for e in self.events}))

    def records(self) -> list:
        """Every record in canonical file order (header ... footer)."""
        events = sorted(self.events, key=lambda e: (e["rank"], e["seq"]))
        counters = sorted(
            self.counters, key=lambda c: (c["rank"], c["pipeline"])
        )
        footer = {
            "kind": "footer",
            "events": len(events),
            "counters": len(counters),
        }
        return [self.header, *events, *counters, footer]

    def to_jsonl(self) -> str:
        """The canonical byte representation (newline-terminated)."""
        return "".join(_dump_record(r) + "\n" for r in self.records())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse and validate a canonical trace; structured errors.

        Raises :class:`~repro.errors.TraceFormatError` on malformed
        content and :class:`~repro.errors.TraceVersionError` on a
        version-skewed header.
        """
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"line {lineno}: invalid JSON: {exc}"
                ) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise TraceFormatError(
                    f"line {lineno}: trace records are objects with a "
                    f"'kind' field"
                )
            records.append(record)
        if not records or records[0]["kind"] != "header":
            raise TraceFormatError("trace must begin with a header record")
        header = records[0]
        version = header.get("version")
        if version != TRACE_VERSION:
            raise TraceVersionError(
                f"trace version {version!r} is not supported "
                f"(this build reads version {TRACE_VERSION})",
                details={"found": version, "supported": TRACE_VERSION},
            )
        if records[-1]["kind"] != "footer":
            raise TraceFormatError("trace must end with a footer record")
        footer = records[-1]
        events, counters = [], []
        for record in records[1:-1]:
            kind = record["kind"]
            if kind in EVENT_KINDS:
                if not isinstance(record.get("rank"), int) or not isinstance(
                    record.get("seq"), int
                ):
                    raise TraceFormatError(
                        f"{kind} record needs integer rank/seq fields"
                    )
                _b64decode(record)
                events.append(record)
            elif kind == "counters":
                counters.append(record)
            else:
                raise TraceFormatError(f"unknown record kind {kind!r}")
        if footer.get("events") != len(events) or footer.get(
            "counters"
        ) != len(counters):
            raise TraceFormatError(
                "footer counts do not match the record stream "
                f"(footer {footer}, found {len(events)} events / "
                f"{len(counters)} counters)"
            )
        return cls(header=header, events=events, counters=counters)
