"""Acceptance: a fault-injected 4-rank in transit run with every
governor active (codec, execution mode, placement coordinated over the
producer group, pool trim, flow) produces bit-identical decision logs
across two seeded runs.

The layout is 2 producers + 2 endpoints — each endpoint serves
exactly one producer, so the endpoint's receive order is that
producer's program order.  Each producer drives both an
in situ bridge (heavy analysis — flips the execution-mode governor)
and the in transit bridge (compressible payload over a slow, lossy
link — drives the codec governor through retries and backoff), churns
a memory pool past the configured watermark (pool governor), and
feeds crowded synthetic device loads into the collective coordination
rounds (placement governor).  Everything runs on simulated clocks with
seeded fault injection, so the *entire* decision log — steps, times,
actions, reasons, structured args — must reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.plan import ControlConfig
from repro.hamr.pool import pool_for
from repro.hamr.runtime import current_clock
from repro.hw.contention import ContentionModel, SharedResource
from repro.hw.node import get_node
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.sensei.placement import DevicePlacement
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import KiB, gbs, us
from tests.support import canonical_decisions

M, N = 2, 2  # 4 world ranks
STEPS = 6
BASE = 0.5
BG = {1: 1.25, 2: 1.25}

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


class HeavyAnalysis(AnalysisAdaptor):
    def __init__(self, cost=BASE):
        super().__init__("heavy")
        self.cost = cost

    def acquire(self, data, deep):
        return data.time_step

    def process(self, payload, comm, device_id):
        current_clock().advance(self.cost)


def make_adaptor(step):
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(4096))
    t.add_host_column("mass", np.full(4096, 0.25))
    da = TableDataAdaptor({"bodies": t})
    da.set_step(step, 0.1 * step)
    return da


def producer_main(sim_comm, bridge):
    plane = bridge.control_plane
    heavy = HeavyAnalysis()
    heavy.set_placement(DevicePlacement.auto(n_use=1))  # everyone aims at 0
    insitu = Bridge()
    insitu.initialize(analyses=[heavy])
    insitu.attach_control(plane)
    node = get_node()
    pool = pool_for(node.devices[sim_comm.rank % len(node.devices)])
    plane.wire_pool(pool, watermark_bytes=64 * KiB)
    contention = ContentionModel()
    clk = current_clock()
    for step in range(STEPS):
        # A fixed solver cadence: snap to the next 100 ms tick before
        # each step, so sub-millisecond ack-arrival jitter from the
        # previous transport step cannot accumulate into this step's
        # measured solver gap.
        tick = 0.1
        clk.advance(math.ceil(clk.now / tick) * tick - clk.now)
        clk.advance(1.0)  # the solver
        da = make_adaptor(step)
        insitu.execute(da)  # wires mode + placement governors
        pool.acquire(int(256 * KiB))
        pool.release(int(256 * KiB))  # inventory above the 64 KiB watermark
        current = heavy.placement.resolve(sim_comm.rank, n_available=4)
        assignment = sim_comm.allgather(current)
        counts = {d: assignment.count(d) for d in set(assignment)}
        loads = dict(BG)
        for d, c in counts.items():
            dil = contention.dilation(SharedResource.GPU_COMPUTE, c - 1)
            loads[d] = loads.get(d, 0.0) + c * BASE * dil
        self_dil = contention.dilation(
            SharedResource.GPU_COMPUTE, counts[current] - 1
        )
        plane.observe_device_loads(step, loads, self_load=BASE * self_dil)
        bridge.execute(da)  # the in transit send: codec governor
    insitu.finalize()
    return [d.to_dict() for d in plane.decisions]


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
    # actions and their ordering, asserted below) is what must
    # reproduce bit-identically.
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
        governors = {d["governor"] for log in logs for d in log}
        assert {"execution", "codec", "pool", "placement", "flow"} <= governors
        # The flow governor acted on the lossy link, and its windows
        # stayed node-consistent: both producers, having ingested the
        # same node-mean retry/latency signals from the coordination
        # rounds, walked the same window/chunk trajectory.
        flow_actions = [
            [d["action"] for d in log if d["governor"] == "flow"]
            for log in logs
        ]
        assert all(flow_actions)
        assert flow_actions[0] == flow_actions[1]
        # Faults were present, placement still re-aimed consistently.
        reaims = [
            [d for d in log if d["action"].startswith("placement=")]
            for log in logs
        ]
        assert all(r for r in reaims)
        assert reaims[0][0]["action"] == reaims[1][0]["action"]
        crowding = [d for d in logs[0] if d["action"] == "crowding"]
        assert crowding

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
