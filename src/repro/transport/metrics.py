"""Transport observability: counters + timeline events for the trace.

Every sender/receiver owns a :class:`TransportMetrics` and records on a
:class:`~repro.hw.clock.Timeline` kept on the current node, so
``get_node().timelines()`` hands ``repro.hw.trace.chrome_trace``
transport activity next to device/stream activity.  The counters additionally export
Chrome-trace *counter* events (``"ph": "C"``) so retries, bytes, and
the compression ratio are inspectable in Perfetto next to the
timelines they explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.hw.clock import Timeline
from repro.hw.node import get_node

__all__ = [
    "TransportMetrics",
    "new_transport_timeline",
    "transport_timelines",
    "reset_transport_timelines",
]


@dataclass
class TransportMetrics:
    """Counters for one transport endpoint (one sender or receiver)."""

    role: str = ""  # "sender" or "receiver"
    peer: str = ""  # e.g. "rank3->rank8"
    steps: int = 0
    raw_bytes: int = 0  # pre-codec payload bytes
    wire_bytes: int = 0  # bytes actually put on the wire (first sends)
    bytes_out: int = 0  # everything transmitted, retries included
    bytes_in: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    retries: int = 0
    drops_recovered: int = 0  # chunks that needed >= 1 retransmission
    duplicates_dropped: int = 0
    checksum_failures: int = 0
    backoff_time: float = 0.0  # simulated seconds spent backing off
    max_queue_depth: int = 0  # credit-window high-water mark
    ack_latency: float = 0.0  # EWMA of per-chunk ACK RTT (simulated s)
    ack_samples: int = 0  # RTT samples folded into the EWMA
    inflight_peak: int = 0  # in-flight high-water of the latest step
    extras: dict = field(default_factory=dict)

    #: EWMA weight for :meth:`observe_ack_latency` (newest sample).
    ACK_LATENCY_ALPHA = 0.3

    def observe_ack_latency(self, rtt: float) -> float:
        """Fold one per-chunk ACK round-trip time into the EWMA.

        The sample is *simulated* seconds between a chunk's transmit
        and its ACK being serviced, so the estimate is deterministic
        under seeded faults — the flow governor's latency signal.
        """
        if self.ack_samples == 0:
            self.ack_latency = float(rtt)
        else:
            self.ack_latency += self.ACK_LATENCY_ALPHA * (
                float(rtt) - self.ack_latency
            )
        self.ack_samples += 1
        return self.ack_latency

    @property
    def compression_ratio(self) -> float:
        """raw/wire byte ratio (1.0 when nothing was sent or codec=none)."""
        return self.raw_bytes / self.wire_bytes if self.wire_bytes else 1.0

    def as_dict(self) -> dict:
        """Every counter by field name, the ratio, then the extras."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["compression_ratio"] = self.compression_ratio
        out.update(out.pop("extras"))
        return out

    def chrome_counter_events(self, tid: int = 0, ts: float = 0.0) -> list[dict]:
        """Chrome trace-event counter samples for this endpoint."""
        label = f"transport {self.role} {self.peer}".strip()
        return [
            {
                "name": label,
                "ph": "C",
                "pid": 0,
                "tid": tid,
                "ts": ts,
                "args": {
                    "retries": self.retries,
                    "bytes_out": self.bytes_out,
                    "bytes_in": self.bytes_in,
                    "wire_bytes": self.wire_bytes,
                    "compression_ratio": round(self.compression_ratio, 3),
                    "queue_depth": self.max_queue_depth,
                    "ack_latency": self.ack_latency,
                    "inflight_peak": self.inflight_peak,
                },
            }
        ]


def new_transport_timeline(name: str) -> Timeline:
    """A fresh timeline for one transport endpoint, kept on the current
    node's ledger."""
    tl = Timeline(name)
    node = get_node()
    with node.lock:
        node.transport_timelines.append(tl)
    return tl


def transport_timelines() -> list[Timeline]:
    """Every transport timeline created on the current node."""
    node = get_node()
    with node.lock:
        return list(node.transport_timelines)


def reset_transport_timelines() -> None:
    """Clear the current node's transport timelines.  A fresh node starts
    with none; this exists only because ``benchmarks/core`` calls it."""
    node = get_node()
    with node.lock:
        node.transport_timelines.clear()
