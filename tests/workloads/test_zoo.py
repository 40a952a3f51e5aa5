"""The zoo's own contract: no scenario's flow may depend on wall time."""

from __future__ import annotations

import pytest

from repro.transport.channel import ReliableSender
from repro.workloads.zoo import GOLDEN_SCENARIOS, ZOO_WORKLOADS, record_zoo


@pytest.mark.parametrize("name", ZOO_WORKLOADS + GOLDEN_SCENARIOS)
def test_every_sender_carries_the_patient_stall_guard(name, monkeypatch):
    """``ack_timeout`` is a *wall* guard: at the 0.05 s default a
    neighbour rank served late earns a retransmit plus simulated
    backoff, and the recorded trace moves.  The stencil and particle
    producers' peer-to-peer halo flows used to run on that default."""
    guards = []
    init = ReliableSender.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        guards.append((self.pipeline, self.policy.ack_timeout))

    monkeypatch.setattr(ReliableSender, "__init__", spy)
    record_zoo(name, seed=0)
    assert guards, "scenario opened no sender"
    assert [g for g in guards if g[1] < 5.0] == []
