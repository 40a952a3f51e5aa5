"""Shared test fixtures.

The substrate keeps a little process-global state: the current virtual
node — which owns every stream, pool and timeline of a run — and each
thread's clock and active device.  Every test starts from a clean slate
so simulated times are deterministic.

Multi-rank control-plane scenarios share the :func:`spmd_control`
fixture: it wraps :func:`repro.mpi.comm.run_spmd` (thread-backed
``ThreadCommunicator`` ranks, each on a fresh seeded ``SimClock``) and
hands every rank body its own :class:`repro.control.ControlPlane`
built from one config, so governor tests stop hand-rolling thread
plumbing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from repro.hw.node import VirtualNode, set_node
from repro.hw.spec import NodeSpec
from repro.mpi.comm import run_spmd
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


@dataclass
class SpmdControlRun:
    """Result of one :func:`spmd_control` scenario.

    ``results[r]`` is what rank ``r``'s body returned; ``planes[r]`` is
    the control plane that rank ran with (None when the scenario ran
    without one).
    """

    results: list
    planes: list

    def decisions(self, rank: int) -> list:
        plane = self.planes[rank]
        return [] if plane is None else list(plane.decisions)

    def actions(self, rank: int) -> list[str]:
        return [d.action for d in self.decisions(rank)]


@pytest.fixture
def spmd_control():
    """Run an N-rank SPMD control-plane scenario deterministically.

    Returns a runner ``run(size, body, *, config=None, devices=None,
    cost=None, start_time=0.0)``.  ``body(comm, plane)`` executes once
    per rank on its own thread with a fresh seeded ``SimClock`` (so two
    identical invocations produce bit-identical decision logs); when
    ``config`` is given every rank gets its own ``ControlPlane`` built
    from it, with the rank's communicator attached so coordinated
    governors can rendezvous.
    """

    def run(size, body, *, config=None, devices=None, cost=None, start_time=0.0):
        from repro.control.plan import ControlPlane

        if devices is not None:
            set_node(VirtualNode(NodeSpec().with_devices(devices)))
        planes = [None] * size

        def rank_main(comm):
            plane = None
            if config is not None:
                plane = ControlPlane(config, comm=comm)
            planes[comm.rank] = plane
            return body(comm, plane)

        results = run_spmd(size, rank_main, cost=cost, start_time=start_time)
        return SpmdControlRun(results=results, planes=planes)

    return run
