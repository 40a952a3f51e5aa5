"""Shared offered-load accounting across sender threads.

In a multi-pipeline service many :class:`ReliableSender` instances on
*different* simulated ranks (threads) target the same endpoint.  The
congestion model in :class:`~repro.transport.channel.Channel`
keys its drop probability off the offered load stamped on each frame,
so senders sharing an endpoint need a common ledger of in-flight bytes
— otherwise each sender sees only its own traffic and the endpoint
never looks congested no matter how many tenants pile on.

:class:`LoadBoard` is that ledger: a lock-protected byte counter per
endpoint world rank.  Senders constructed with ``load_board=`` update
it as chunks enter/leave flight and stamp frames with the *aggregate*
load.  It is observability/fault-model plumbing only — nothing on a
decision path reads it (HL010: its values depend on thread timing), so
determinism tests must keep congestion faults off.
"""

from __future__ import annotations

import threading

__all__ = ["LoadBoard"]


class LoadBoard:
    """Thread-safe in-flight byte counts keyed by destination rank."""

    def __init__(self):
        self._lock = threading.Lock()
        self._bytes: dict[int, int] = {}

    def add(self, key: int, delta: int) -> None:
        with self._lock:
            self._bytes[key] = max(0, self._bytes.get(key, 0) + delta)

    def load(self, key: int) -> int:
        with self._lock:
            return self._bytes.get(key, 0)

    def snapshot(self) -> dict[int, int]:
        with self._lock:
            return {k: self._bytes[k] for k in sorted(self._bytes)}
