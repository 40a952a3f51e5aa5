"""The zoo's own contract: no scenario's flow may depend on wall time."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.mpi.comm import ThreadCommunicator
from repro.workloads.zoo import record_zoo
from tests.support import ALL_SCENARIOS


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_wall_jitter_in_send_and_recv_cannot_move_a_trace(name, monkeypatch):
    """The experiment ``benchmarks/core/README.md`` describes: seeded
    0-3 ms sleeps in every ``send``/``recv`` used to earn a late
    neighbour a wall-guard retransmit (and ~50 us of simulated backoff)
    about one run in 50.  No wait consults the wall clock any more, so
    a golden scenario and a zoo workload with peer-to-peer halo flows
    record byte-identical traces however the ranks are delayed."""
    calm = record_zoo(name, seed=0)[0].to_jsonl()

    rng, rng_lock = random.Random(name), threading.Lock()

    def jittered(method):
        def wrapper(self, *args, **kwargs):
            with rng_lock:
                pause = rng.uniform(0.0, 0.003)
            time.sleep(pause)
            return method(self, *args, **kwargs)

        return wrapper

    for method in ("send", "recv"):
        monkeypatch.setattr(
            ThreadCommunicator, method,
            jittered(getattr(ThreadCommunicator, method)),
        )
    for _ in range(2):
        assert record_zoo(name, seed=0)[0].to_jsonl() == calm
