"""Fixture: HL012 — the wall clock deciding what library code does."""

import queue
import threading
import time
from time import monotonic as now

_IDLE = 0.0005


def poll_until_deadline(mailbox: queue.Queue, patience: float):
    deadline = time.monotonic() + patience  # expect: HL012
    while True:
        try:
            return mailbox.get(timeout=0.02)  # expect: HL012
        except queue.Empty:
            if now() > deadline:  # expect: HL012
                raise TimeoutError("no traffic") from None
            time.sleep(_IDLE)  # expect: HL012


def timed_rendezvous(barrier: threading.Barrier, done: threading.Event):
    barrier.wait(timeout=60.0)  # expect: HL012
    return done.wait(timeout=5)  # expect: HL012


def stamp():
    return time.perf_counter()  # expect: HL012


def suppressed(worker: threading.Thread):
    worker.join(timeout=1.0)  # lint: disable=HL012
