"""Shared offered-load accounting across sender ranks, in simulated time.

In a multi-pipeline service many :class:`ReliableSender` instances on
*different* simulated ranks target the same endpoint.  The congestion
model in :class:`~repro.transport.channel.Channel` keys its drop
probability off the offered load stamped on each frame, so senders
sharing an endpoint need a common ledger of in-flight bytes — otherwise
each sender sees only its own traffic and the endpoint never looks
congested no matter how many tenants pile on.

:class:`LoadBoard` is that ledger.  Senders constructed with
``load_board=`` record each frame's bytes at its simulated send time
and release them at its simulated ACK time; :meth:`LoadBoard.load`
answers for one simulated instant.  Congestion is therefore a function
of the simulated timeline and the scheduled order of the run, never of
which thread got there first.
"""

from __future__ import annotations

import math
import threading

__all__ = ["LoadBoard"]


class LoadBoard:
    """In-flight byte counts keyed by destination rank, over simulated time."""

    def __init__(self):
        # The lock is for observers outside the run (a sampler thread).
        self._lock = threading.Lock()
        self._events: dict[int, list[tuple[float, int]]] = {}

    def add(self, key: int, delta: int, at: float) -> None:
        """``delta`` bytes enter (> 0) or leave (< 0) flight toward
        ``key`` at simulated time ``at``."""
        with self._lock:
            self._events.setdefault(key, []).append((at, delta))

    def load(self, key: int, at: float = math.inf) -> int:
        """Bytes in flight toward ``key`` at simulated time ``at``: a
        frame sent at ``t0`` and ACKed at ``t1`` counts for
        ``t0 <= at < t1`` (the default, every frame not yet ACKed)."""
        with self._lock:
            events = self._events.get(key, ())
            return max(0, sum(delta for t, delta in events if t <= at))

    def snapshot(self) -> dict[int, int]:
        """Bytes not yet ACKed, per destination, sorted by rank."""
        with self._lock:
            keys = sorted(self._events)
        return {k: self.load(k) for k in keys}
