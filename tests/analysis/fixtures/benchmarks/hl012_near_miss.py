"""Fixture: HL012 near miss — a benchmark file legitimately times itself."""

import time


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def settle():
    time.sleep(0.01)
