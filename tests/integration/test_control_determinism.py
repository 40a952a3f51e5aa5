"""Acceptance: a fault-injected 4-rank in transit run with the codec
and flow governors active produces bit-identical decision logs across
two seeded runs.

The layout is 2 producers + 2 endpoints — each endpoint serves
exactly one producer, so the endpoint's receive order is that
producer's program order.  Each producer ships a compressible payload
over a slow, lossy link, which drives the codec governor and, through
retries and backoff, the flow governor.  Everything runs on simulated
clocks with seeded fault injection, so the *entire* decision log —
steps, times, actions, reasons, structured args — must reproduce
exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.plan import ControlConfig
from repro.hamr.runtime import current_clock
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import gbs, us
from tests.support import canonical_decisions

M, N = 2, 2  # 4 world ranks
STEPS = 6

CONTROL = ControlConfig.from_xml_attrs(
    {
        "seed": "13",
        "flow": "on",
    },
    flow_attrs={
        "min_credits": "2",
        "max_credits": "32",
        "min_chunk": "512",
        "max_chunk": "8192",
    },
)
TRANSPORT = TransportConfig(
    compression="adaptive",
    chunk_bytes=1024,
    retry=RetryPolicy(max_retries=40),
).with_faults(drop=0.10, duplicate=0.05, reorder=0.10, seed=41)
SLOW_FABRIC = CommCostModel(latency=us(5.0), bandwidth=gbs(0.05))


def make_adaptor(step):
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(4096))
    t.add_host_column("mass", np.full(4096, 0.25))
    da = TableDataAdaptor({"bodies": t})
    da.set_step(step, 0.1 * step)
    return da


def producer_main(sim_comm, bridge):
    clk = current_clock()
    for step in range(STEPS):
        # A fixed solver cadence: snap to the next 100 ms tick before
        # each step, so ack-arrival times from the previous transport
        # step do not carry into this step's start.
        tick = 0.1
        clk.advance(math.ceil(clk.now / tick) * tick - clk.now)
        clk.advance(1.0)  # the solver
        bridge.execute(make_adaptor(step))  # codec + flow governors
    return [d.to_dict() for d in bridge.control_plane.decisions]


def endpoint_factory():
    class Sink(AnalysisAdaptor):
        def __init__(self):
            super().__init__("sink")
            self.set_device_id(-1)

        def acquire(self, data, deep):
            return None

        def process(self, payload, comm, device_id):
            pass

    return [Sink()]


def run_once():
    # Two runs share the process: the shared harness scrubs the
    # substrate state the way the per-test fixture does, so the second
    # run starts cold.  Decision logs are compared in the trace plane's
    # canonical form (``canonical_decisions``): the clock stamp is
    # dropped, measured floats are normalized to 9 significant digits,
    # and flow decisions additionally shed their measured-signal
    # context (retry_rate, ack_latency, inflight_peak, and the reason
    # string quoting them): the AIMD trajectory (the window/chunk
    # actions and their ordering) is what must reproduce
    # bit-identically.
    fresh_substrate("determinism")
    layout = InTransitLayout(m=M, n=N)
    producers, _endpoints = run_in_transit(
        layout,
        producer_main,
        endpoint_factory,
        transport=TRANSPORT,
        cost=SLOW_FABRIC,
        control=CONTROL,
    )
    return producers


class TestControlDeterminism:
    def test_all_governors_decide_at_least_once(self):
        logs = run_once()
        assert len(logs) == M
        for log in logs:
            assert {d["governor"] for d in log} == {"codec", "flow"}
            # The codec governor left the raw link for compression.
            assert "codec=zlib" in [d["action"] for d in log]

    def test_decision_logs_identical_across_seeded_runs(self):
        """Same seeds, same decisions — on every rank, in the same order.

        The decision *content* (governor, step, action, reason, applied,
        structured args) and timestamps reproduce bit-identically: the
        wait table runs producers and endpoints in (simulated clock,
        rank) order, not in real-thread arrival order.
        """
        first = run_once()
        second = run_once()
        assert [canonical_decisions(log) for log in first] == [
            canonical_decisions(log) for log in second
        ]
        for la, lb in zip(first, second):
            assert [d["time"] for d in la] == [d["time"] for d in lb]
