"""Per-step observations: the control plane's sensor layer.

Signals are sampled where the work happens — :class:`repro.sensei.bridge.Bridge`
taps solver/in situ time, :class:`repro.service.router.ServiceBridge`
taps transport counters — as one :class:`StepObservation` per step,
which the plane counts and the trace recorder mirrors.  Governors do
not read observations back: the taps feed each governor's ``observe``
directly and the governors keep their own estimators (EWMAs,
hysteresis bands), which is what stops a single noisy step from
flipping a knob.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StepObservation"]


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
