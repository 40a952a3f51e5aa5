"""Sender-side retry: exponential backoff with jitter.

Everything here is *simulated* seconds.  ``backoff(attempt)`` is the
delay a real sender would insert before retransmitting, charged to the
sender's :class:`~repro.hw.clock.SimClock` so fault recovery is visible
on the simulated timeline (and absent from clean runs).  Retransmit
*scheduling* needs no timer at all: the channel reports each frame's
delivery verdict at send time (faults are injected sender-side from a
seeded RNG), so lost chunks are retransmitted at deterministic points
in the send sequence and ``max_retries`` bounds them.  A peer that
never answers a *delivered* frame is not this module's business — the
communicator reports it as a :class:`~repro.errors.DeadlockError`.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass

from repro.errors import TransportError
from repro.units import us

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard delivery tries before giving up."""

    max_retries: int = 8
    backoff_base: float = us(50.0)  # simulated seconds, first retry
    backoff_factor: float = 2.0
    backoff_max: float = us(5000.0)
    jitter: float = 0.25  # +/- fraction applied to each backoff
    #: Not a knob: accepted and discarded so ``benchmarks/core``
    #: (frozen) can keep passing the wall stall guard this policy no
    #: longer has.  Never stored, read, validated or serialised; goes
    #: with the next ``[benchmark]`` PR.
    ack_timeout: InitVar[float] = 0.0

    def __post_init__(self, ack_timeout):
        if self.max_retries < 0:
            raise TransportError(f"max_retries must be >= 0: {self.max_retries}")
        if not 0.0 <= self.jitter < 1.0:
            raise TransportError(f"jitter must be in [0, 1): {self.jitter}")
        if self.backoff_factor < 1.0:
            raise TransportError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise TransportError(
                f"need 0 <= backoff_base <= backoff_max: "
                f"{self.backoff_base}/{self.backoff_max}"
            )

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Simulated delay before retransmission ``attempt`` (1-based).

        ``backoff_max`` caps the *jittered* delay: jitter is applied to
        the exponential curve first and the clamp last, so no draw can
        exceed the cap (clamping before jittering let upward jitter
        escape it).
        """
        if attempt < 1:
            raise TransportError(f"attempt is 1-based: {attempt}")
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(delay, self.backoff_max)
