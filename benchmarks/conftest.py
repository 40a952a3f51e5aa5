"""Benchmark fixtures: clean substrate state per benchmark."""

from __future__ import annotations

import pytest

from repro.trace.harness import fresh_substrate


@pytest.fixture(autouse=True)
def clean_substrate():
    fresh_substrate("bench")
    yield
    fresh_substrate("bench")
