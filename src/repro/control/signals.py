"""Per-step observations: the control plane's sensor layer.

Signals are sampled where the work happens — :class:`repro.sensei.bridge.Bridge`
taps solver/in situ time, :class:`repro.service.router.ServiceBridge`
taps transport counters — and pushed into a bounded
:class:`SignalBuffer` ring, the plane's record of what it recently
saw (and what the trace recorder mirrors).  Governors do not read the
ring: the taps feed each governor's ``observe`` directly and the
governors keep their own estimators (EWMAs, hysteresis bands), which
is what stops a single noisy step from flipping a knob.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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

    Appends beyond ``capacity`` evict the oldest sample, so a burst of
    steps cannot grow memory.
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

    @property
    def latest(self) -> StepObservation | None:
        return self._ring[-1] if self._ring else None
