"""Credit-based flow control: a bounded, *resizable* in-flight window.

A sender must hold a credit for every un-ACKed chunk; when the window
is exhausted it stops transmitting and services ACKs instead.  That is
the backpressure that keeps a fast producer from queueing unboundedly
ahead of a slow endpoint — the mailbox never holds more than
``credits`` chunks per (producer, step).

The window is the flow-control governor's actuator
(:class:`repro.control.governors.FlowGovernor` via
:meth:`repro.transport.channel.ReliableSender.set_window`):
:meth:`CreditWindow.resize` changes the credit limit at run time.  A
shrink below the current in-flight count never strands credits — the
chunks already on the wire keep their credits and simply drain; the
sender just cannot acquire new credits until the in-flight count falls
below the new limit.
"""

from __future__ import annotations

from repro.errors import TransportError

__all__ = ["CreditWindow"]


class CreditWindow:
    """A resizable pool of transmission credits."""

    def __init__(self, credits: int):
        if credits < 1:
            raise TransportError(f"need at least one credit: {credits}")
        self.credits = int(credits)
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def try_acquire(self) -> bool:
        """Take a credit if one is free; False means backpressure."""
        if self._in_flight >= self.credits:
            return False
        self._in_flight += 1
        return True

    def release(self, n: int = 1) -> None:
        """Return ``n`` credits (one per ACKed chunk)."""
        if n < 0 or n > self._in_flight:
            raise TransportError(
                f"cannot release {n} credits with {self._in_flight} in flight"
            )
        self._in_flight -= n

    def resize(self, credits: int) -> None:
        """Change the credit limit (the flow governor's actuator).

        Safe at any time: growing frees capacity immediately; shrinking
        below the current in-flight count defers — outstanding chunks
        keep their credits (``release`` still accounts for every one of
        them) and ``try_acquire`` stays refused until ACKs drain the
        count under the new limit.
        """
        if credits < 1:
            raise TransportError(f"need at least one credit: {credits}")
        self.credits = int(credits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CreditWindow({self._in_flight}/{self.credits})"
