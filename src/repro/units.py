"""Unit helpers used throughout the simulated substrate.

Internally the simulator keeps time in **seconds** (float), sizes in
**bytes** (int), rates in **bytes/second** and **flop/second** (float).
These helpers keep conversion factors in one place and make cost-model
code read like the spec sheets it is calibrated from.
"""

from __future__ import annotations

__all__ = [
    "KiB", "MiB", "GiB",
    "KB", "MB", "GB", "US", "MS",
    "gbs", "tflops", "gflops", "us", "ms",
]

# Binary sizes.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# Decimal sizes (vendor spec sheets use decimal units).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Time.
US = 1e-6
MS = 1e-3


def gbs(x: float) -> float:
    """Convert GB/s (decimal) to bytes/second."""
    return float(x) * GB


def tflops(x: float) -> float:
    """Convert TFLOP/s to FLOP/s."""
    return float(x) * 1e12


def gflops(x: float) -> float:
    """Convert GFLOP/s to FLOP/s."""
    return float(x) * 1e9


def us(x: float) -> float:
    """Convert microseconds to seconds."""
    return float(x) * US


def ms(x: float) -> float:
    """Convert milliseconds to seconds."""
    return float(x) * MS


def fmt_time(t: float) -> str:
    """Human-readable duration, e.g. ``fmt_time(0.0035) == '3.500 ms'``."""
    t = float(t)
    if abs(t) >= 1.0:
        return f"{t:.3f} s"
    if abs(t) >= MS:
        return f"{t / MS:.3f} ms"
    return f"{t / US:.3f} us"
