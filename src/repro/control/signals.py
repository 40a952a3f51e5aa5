"""Per-step observations: the control plane's sensor layer.

Signals are sampled where the work happens — the transport tap
:meth:`~repro.control.plan.ControlPlane.observe_transport_step`, which
a :class:`repro.service.router.ServiceBridge` calls per sender per
step, reads the sender's counters — as one :class:`StepObservation`
per step, which the plane counts and the trace recorder mirrors.
Governors do not read observations back: the tap feeds each governor's
``observe`` directly and the governors keep their own estimators (EWMAs,
hysteresis bands), which is what stops a single noisy step from
flipping a knob.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StepObservation"]


@dataclass(frozen=True)
class StepObservation:
    """One sender's measurements for one step (simulated seconds/bytes).

    ``t`` is the simulated time the sample was taken, which orders
    decisions on the trace.
    """

    step: int
    t: float
    apparent_time: float = 0.0   # time the simulation observed blocked
    payload_bytes: int = 0       # raw bytes published/shipped this step
    wire_bytes: int = 0          # bytes that hit the wire this step
    transfer_time: float = 0.0   # wire time (apparent minus encode charge)
    compression_ratio: float = 1.0
    retries: int = 0
    ack_latency: float = 0.0     # EWMA of per-chunk ACK RTT (simulated s)
    inflight_peak: int = 0       # credit-window high-water this step
    extras: tuple = ()           # sorted (key, value) pairs, free-form
