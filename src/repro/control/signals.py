"""Per-step observations: the control plane's sensor layer.

Signals are sampled where the work happens — :class:`repro.sensei.bridge.Bridge`
taps solver/in situ time, :class:`repro.service.router.ServiceBridge`
taps transport counters — and pushed into a bounded
:class:`SignalBuffer` ring.  Governors read aggregate views (windowed
means, totals, deltas) rather than raw events, so a burst of steps
cannot grow memory and a single noisy step cannot flip a knob.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Iterator

__all__ = ["StepObservation", "SignalBuffer"]


@dataclass(frozen=True)
class StepObservation:
    """One step's worth of measurements (simulated seconds/bytes).

    Not every tap fills every field: a purely in situ bridge leaves the
    transport fields at their defaults, a transport tap leaves the
    solver fields at theirs.  ``t`` is the simulated time the sample
    was taken, which orders decisions on the trace.
    """

    step: int
    t: float
    sim_time: float = 0.0        # solver work since the previous step
    insitu_time: float = 0.0     # analysis busy time attributed to this step
    apparent_time: float = 0.0   # time the simulation observed blocked
    payload_bytes: int = 0       # raw bytes published/shipped this step
    wire_bytes: int = 0          # bytes that hit the wire this step
    transfer_time: float = 0.0   # wire time (apparent minus encode charge)
    compression_ratio: float = 1.0
    retries: int = 0
    ack_latency: float = 0.0     # EWMA of per-chunk ACK RTT (simulated s)
    inflight_peak: int = 0       # credit-window high-water this step
    extras: tuple = ()           # sorted (key, value) pairs, free-form

    @property
    def extras_dict(self) -> dict:
        return dict(self.extras)


class SignalBuffer:
    """A bounded ring buffer of :class:`StepObservation` records.

    Appends beyond ``capacity`` evict the oldest sample; aggregate
    helpers operate over the most recent ``n`` samples (the window a
    governor reasons about).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self._ring: deque[StepObservation] = deque(maxlen=self.capacity)
        self._pushed = 0

    def push(self, obs: StepObservation) -> None:
        self._ring.append(obs)
        self._pushed += 1

    @property
    def pushed(self) -> int:
        """Total observations ever pushed (evictions included)."""
        return self._pushed

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[StepObservation]:
        return iter(tuple(self._ring))

    @property
    def latest(self) -> StepObservation | None:
        return self._ring[-1] if self._ring else None

    def last(self, n: int) -> list[StepObservation]:
        """The most recent ``n`` observations, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def mean(self, attr: str, n: int | None = None) -> float:
        """Windowed mean of one numeric field (0.0 on an empty window)."""
        window = self.last(n if n is not None else len(self._ring))
        if not window:
            return 0.0
        return sum(getattr(o, attr) for o in window) / len(window)

    def total(self, attr: str, n: int | None = None) -> float:
        """Windowed sum of one numeric field."""
        window = self.last(n if n is not None else len(self._ring))
        return sum(getattr(o, attr) for o in window)

    def as_dicts(self) -> list[dict]:
        """JSON-ready dump of the window (reporting/debugging aid)."""
        out = []
        for o in self._ring:
            d = {f.name: getattr(o, f.name) for f in fields(o) if f.name != "extras"}
            d.update(o.extras_dict)
            out.append(d)
        return out
