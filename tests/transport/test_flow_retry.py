"""Credit-window flow control and retry-policy tests."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.transport.flow import CreditWindow
from repro.transport.retry import RetryPolicy
from repro.units import us


class TestCreditWindow:
    def test_bounded_acquire(self):
        w = CreditWindow(2)
        assert w.try_acquire() and w.try_acquire()
        assert not w.try_acquire()  # back-pressure
        assert w.in_flight == 2

    def test_release_restores_credit(self):
        w = CreditWindow(1)
        assert w.try_acquire()
        assert not w.try_acquire()
        w.release()
        assert w.try_acquire()

    def test_invalid_credits(self):
        with pytest.raises(TransportError):
            CreditWindow(0)

    def test_resize_grow_frees_capacity_immediately(self):
        w = CreditWindow(1)
        assert w.try_acquire()
        assert not w.try_acquire()
        w.resize(3)
        assert w.try_acquire() and w.try_acquire()
        assert not w.try_acquire()

    def test_resize_shrink_below_inflight_defers(self):
        """A shrink never strands in-flight credits: outstanding chunks
        drain through release(), and acquisition stays refused until
        the count falls under the new limit."""
        w = CreditWindow(4)
        for _ in range(4):
            assert w.try_acquire()
        w.resize(2)
        assert w.in_flight == 4  # nothing stranded or clawed back
        assert not w.try_acquire()
        w.release()  # 3 in flight, still over the new limit
        assert not w.try_acquire()
        w.release(2)  # 1 in flight: one credit free again
        assert w.try_acquire()
        assert w.in_flight == 2
        assert not w.try_acquire()
        w.release(2)  # draining all the way round-trips cleanly

    def test_resize_rejects_less_than_one_credit(self):
        w = CreditWindow(2)
        for bad in (0, -1):
            with pytest.raises(TransportError):
                w.resize(bad)
        assert w.credits == 2


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_base=us(50.0), backoff_factor=2.0, jitter=0.0)
        rng = random.Random(0)
        d1 = p.backoff(1, rng)
        d2 = p.backoff(2, rng)
        d3 = p.backoff(3, rng)
        assert d2 == pytest.approx(2 * d1)
        assert d3 == pytest.approx(4 * d1)

    def test_backoff_capped(self):
        p = RetryPolicy(
            backoff_base=us(50.0), backoff_factor=10.0,
            backoff_max=us(100.0), jitter=0.0,
        )
        assert p.backoff(8, random.Random(0)) == pytest.approx(us(100.0))

    def test_jitter_stays_in_band(self):
        p = RetryPolicy(backoff_base=us(100.0), jitter=0.25)
        rng = random.Random(42)
        for attempt in range(1, 5):
            base = min(
                us(100.0) * p.backoff_factor ** (attempt - 1), p.backoff_max
            )
            for _ in range(50):
                d = p.backoff(attempt, rng)
                assert 0.75 * base <= d <= 1.25 * base

    def test_validation(self):
        with pytest.raises(TransportError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(TransportError):
            RetryPolicy(jitter=1.5)

    def test_ack_timeout_is_accepted_and_discarded(self):
        """The frozen ``benchmarks/core`` still passes the wall guard
        this policy no longer has (and ``replace``s the result): the
        argument is init-only — no field, no attribute of its own, no
        part of equality, and any value at all is "valid"."""
        p = RetryPolicy(max_retries=40, ack_timeout=5.0)
        assert p == RetryPolicy(max_retries=40) == RetryPolicy(
            max_retries=40, ack_timeout=-1.0
        )
        assert "ack_timeout" not in {f.name for f in dataclasses.fields(p)}
        assert "ack_timeout" not in vars(p)
        assert dataclasses.replace(p, max_retries=3) == RetryPolicy(max_retries=3)


class TestBackoffCapProperty:
    """The jittered delay must never exceed backoff_max.

    Regression test: jitter used to be applied after the
    ``min(..., backoff_max)`` clamp, so upward jitter let delays
    escape the cap exactly on the attempts where the cap matters
    (late, already-slow retries).
    """

    @given(
        attempt=st.integers(1, 32),
        seed=st.integers(0, 9999),
        jitter=st.floats(0.0, 0.99),
    )
    def test_jittered_delay_never_exceeds_cap(self, attempt, seed, jitter):
        p = RetryPolicy(
            backoff_base=us(50.0), backoff_factor=2.0,
            backoff_max=us(500.0), jitter=jitter,
        )
        d = p.backoff(attempt, random.Random(seed))
        assert 0.0 <= d <= p.backoff_max

    @given(attempt=st.integers(1, 32), seed=st.integers(0, 9999))
    def test_cap_binds_at_saturation(self, attempt, seed):
        """Once the curve saturates, downward jitter is still allowed."""
        p = RetryPolicy(
            backoff_base=us(400.0), backoff_factor=4.0,
            backoff_max=us(500.0), jitter=0.25,
        )
        d = p.backoff(attempt, random.Random(seed))
        assert d <= p.backoff_max
        if attempt >= 2:
            # Deep in saturation the floor is (1-jitter)*max when the
            # unclamped curve is far above the cap.
            assert d >= (1.0 - p.jitter) * p.backoff_max

    def test_unjittered_matches_clamped_curve(self):
        p = RetryPolicy(
            backoff_base=us(50.0), backoff_factor=10.0,
            backoff_max=us(100.0), jitter=0.0,
        )
        for attempt in range(1, 6):
            expected = min(
                p.backoff_base * p.backoff_factor ** (attempt - 1),
                p.backoff_max,
            )
            assert p.backoff(attempt) == pytest.approx(expected)
