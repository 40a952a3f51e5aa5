"""Shared test fixtures.

The substrate keeps a little process-global state: the current virtual
node — which owns every stream, pool and timeline of a run — and each
thread's clock and active device.  Every test starts from a clean slate
so simulated times are deterministic.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.hw.node import VirtualNode, set_node
from repro.trace.harness import fresh_substrate


# Under CI every property and stateful test replays one fixed example
# sequence with no per-example deadline, so a slow runner or an unlucky
# draw cannot flake tier-1; local runs keep exploring.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="re-record the golden trace fixtures under tests/golden/ "
             "instead of comparing against them (review the diff before "
             "committing — a golden refresh is a deliberate contract "
             "change, not a fix)",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run was asked to refresh the golden fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(autouse=True)
def clean_substrate():
    """Fresh node, clock and active device per test — and nothing left
    pinned after it."""
    fresh_substrate("test")
    yield
    fresh_substrate("test")


@pytest.fixture
def node4():
    """A 4-GPU node installed as the current node (Perlmutter-like)."""
    node = VirtualNode()
    set_node(node)
    return node
