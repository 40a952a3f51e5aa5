"""``repro.transport`` — the pluggable data-transport plane.

In transit analysis lives or dies by how data moves off node.  This
package is the transport plane under :mod:`repro.sensei.intransit`:

- :mod:`repro.transport.wire` — a versioned wire format: column
  payloads chunked with per-chunk CRC32 checksums and pluggable
  compression codecs whose CPU cost is charged to the simulated clock;
- :mod:`repro.transport.protocol` — what the reliable protocol decides
  (window, retransmits, dedup, ACKs, drain): two step machines, no I/O;
- :mod:`repro.transport.channel` — the delivery layer: an injectable
  lossy/duplicating/reordering/corrupting channel for fault testing,
  plus the reliable sender/receiver pair that drives the machines;
- :mod:`repro.transport.flows` — the tag registry and the
  :class:`FlowTable` every plane builds its reliable flows through;
- :mod:`repro.transport.retry` — sender-side retry with exponential
  backoff and jitter;
- :mod:`repro.transport.flow` — bounded, run-time *resizable*
  in-flight credit window so producers backpressure instead of
  queueing unboundedly (the flow-control governor's actuator);
- :mod:`repro.transport.metrics` — per-endpoint transport counters
  recorded as :class:`~repro.hw.clock.TimedEvent`\\ s for the
  Chrome-trace export;
- :mod:`repro.transport.config` — :class:`TransportConfig`, every
  knob of the data plane in one dataclass.
"""

from __future__ import annotations

from repro.transport.channel import (
    Channel,
    FaultSpec,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.config import TransportConfig
from repro.transport.flow import CreditWindow
from repro.transport.flows import FlowTable
from repro.transport.metrics import TransportMetrics
from repro.transport.retry import RetryPolicy
from repro.transport.wire import (
    Chunk,
    StepAssembler,
    available_codecs,
    decode_step,
    encode_step,
    get_codec,
)

__all__ = [
    "Channel",
    "Chunk",
    "CreditWindow",
    "FaultSpec",
    "FlowTable",
    "ReliableReceiver",
    "ReliableSender",
    "RetryPolicy",
    "StepAssembler",
    "TransportConfig",
    "TransportMetrics",
    "available_codecs",
    "decode_step",
    "encode_step",
    "get_codec",
]
