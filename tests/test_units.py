"""Tests for the unit helpers."""

from __future__ import annotations

import pytest

from repro.units import (
    GB,
    GiB,
    KiB,
    MiB,
    fmt_time,
    gbs,
    gflops,
    ms,
    tflops,
    us,
)


class TestConversions:
    def test_binary_sizes(self):
        assert KiB == 1024
        assert MiB == 1024**2
        assert GiB == 1024**3

    def test_rate_helpers(self):
        assert gbs(25.0) == 25e9
        assert tflops(9.7) == 9.7e12
        assert gflops(20.0) == 20e9

    def test_time_helpers(self):
        assert us(5.0) == pytest.approx(5e-6)
        assert ms(3.0) == pytest.approx(3e-3)


class TestFormatting:
    def test_fmt_time_ranges(self):
        assert fmt_time(2.5) == "2.500 s"
        assert fmt_time(0.0035) == "3.500 ms"
        assert fmt_time(4.2e-6) == "4.200 us"
        assert fmt_time(0.0) == "0.000 us"

    def test_fmt_time_boundaries(self):
        assert fmt_time(1.0).endswith(" s")
        assert fmt_time(0.999).endswith(" ms")
        assert fmt_time(1e-3).endswith(" ms")
