"""Tests for the controller primitives: EWMA, hysteresis."""

from __future__ import annotations

import pytest

from repro.control.policy import EWMA, Hysteresis


class TestEWMA:
    def test_no_estimate_until_first_sample(self):
        e = EWMA(0.5)
        assert e.value is None
        assert e.get(7.0) == 7.0

    def test_first_sample_taken_verbatim(self):
        e = EWMA(0.1)
        assert e.update(4.0) == 4.0

    def test_blends_toward_new_samples(self):
        e = EWMA(0.5)
        e.update(0.0)
        assert e.update(1.0) == pytest.approx(0.5)
        assert e.update(1.0) == pytest.approx(0.75)

    def test_converges_on_constant_signal(self):
        e = EWMA(0.3)
        for _ in range(100):
            e.update(2.5)
        assert e.value == pytest.approx(2.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EWMA(0.0)
        with pytest.raises(ValueError):
            EWMA(1.5)


class TestHysteresis:
    def test_flips_only_outside_the_band(self):
        h = Hysteresis(0.05, 0.15)
        assert h.update(0.10) is False  # inside: keeps state
        assert h.update(0.20) is True   # above high: flips on
        assert h.update(0.10) is True   # inside: keeps state
        assert h.update(0.01) is False  # below low: flips off

    def test_hover_near_one_threshold_does_not_flap(self):
        h = Hysteresis(0.05, 0.15)
        h.update(0.2)
        for v in (0.14, 0.16, 0.13, 0.151, 0.06):
            assert h.update(v) is True

    def test_initial_state_respected(self):
        assert Hysteresis(0.0, 1.0, state=True).update(0.5) is True
        assert Hysteresis(0.0, 1.0, state=False).update(0.5) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            Hysteresis(0.2, 0.1)
