"""Headline claims of the adaptive planes, checked in simulated time.

Each governor races every static choice it picks between on the same
seeded workload and must hold the claim it exists for: flow (AIMD)
within 1.10x of the best static ``(window, chunk)``; repartitioning
beats block and cyclic under skew (HDArray, PAPERS.md); weighted-fair
admission protects the high-priority tenant on shared endpoints (the
NekRS-on-SENSEI fan-in regime); codec within 1.05x of the best static
choice.  A governor switched off (``<control NAME="off">``) fails.
The paper's static execution methods are raced too: asynchronous
beats lockstep when the in situ step is heavy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.array import StencilConfig, StencilWorkload
from repro.control.plan import ControlConfig, ControlPlane
from repro.hamr.runtime import current_clock
from repro.hw.node import get_node
from repro.hw.trace import chrome_trace
from repro.mpi.comm import CommCostModel, run_spmd
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.service import LoadBoard, PipelineSpec, ServiceConfig, run_service
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import KiB, gbs, us

#: First retransmission backoff on every shallow-pipe link (a clean
#: high-priority service step costs 42 us).
BACKOFF = us(500.0)


class StubAnalysis(AnalysisAdaptor):
    """Costs ``cost`` simulated seconds per step (endpoint sinks: 0)."""

    def __init__(self, mesh: str = "bodies", cost: float = 0.0):
        super().__init__(f"stub-{mesh}")
        self.mesh, self.cost = mesh, cost
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return data.get_mesh(self.mesh).n_rows

    def process(self, payload, comm, device_id):
        current_clock().advance(self.cost)


def publish(bridge, step: int, mesh: str | None = "bodies", **columns):
    """One step publishing ``columns`` as table ``mesh`` (None: nothing)."""
    meshes = {}
    if mesh is not None:
        meshes[mesh] = TableData(mesh)
        for name, values in columns.items():
            meshes[mesh].add_host_column(name, values)
    adaptor = TableDataAdaptor(meshes)
    adaptor.set_step(step, step * 1e-3)
    bridge.execute(adaptor)


def only(flow_bounds=None, **settings) -> ControlConfig:
    """A control plane with every governor off except ``settings``."""
    return ControlConfig.from_xml_attrs(
        {"codec": "off", **settings}, flow_attrs=flow_bounds
    )


def decision_log(bridge) -> list:
    return list(bridge.control_plane.decisions) if bridge.control_plane else []


def in_transit(m, n, producer_main, latency, bandwidth, **kw):
    """Producer results and endpoints of one M-to-N run into stubs."""
    cost = CommCostModel(latency=us(latency), bandwidth=gbs(bandwidth))
    return run_in_transit(InTransitLayout(m=m, n=n), producer_main,
                          lambda: [StubAnalysis()], cost=cost, **kw)


def shallow_pipe(chunk: int, window: int, seed: int, pipe_kib: int,
                 pipe_drop: float, drop: float = 0.0) -> TransportConfig:
    """A pipelined link whose shallow pipe drops frames when overfilled;
    generous retries, backoff heavy enough that loss costs simulated time."""
    retry = RetryPolicy(max_retries=60, backoff_base=BACKOFF, backoff_max=10 * BACKOFF)
    link = TransportConfig(compression="none", chunk_bytes=chunk,
                           max_inflight=window, retry=retry, pipelined=True)
    return link.with_faults(drop=drop, seed=seed, congestion_bytes=pipe_kib * KiB,
                            congestion_drop=pipe_drop)


# -- flow: AIMD vs every static (window, chunk) corner -----------------------------

FLOW_WARMUP = 8  # of 24 steps: scored after the governor converged
WINDOWS, CHUNKS = (2, 8), (2048, 8192)
FLOW_BOUNDS = {"min_credits": "2", "max_credits": "8",
               "min_chunk": "2048", "max_chunk": "8192"}
#: (base drop, one-way latency in us, shallow-pipe KiB, congestion drop)
FLOW_LINKS = {"fat-clean": (0.0, 400.0, 0, 0.0), "congested": (0.02, 5.0, 8, 0.15)}


def run_flow(link: str, window: int, chunk: int, adaptive: bool):
    """Steady-state ship time, flow decisions and decision events of
    one pipelined 32 KiB-per-step producer -> endpoint run."""
    drop, latency, pipe_kib, pipe_drop = FLOW_LINKS[link]
    fresh_substrate(f"flow-{link}")

    def producer_main(sim_comm, bridge):
        for step in range(24):
            publish(bridge, step, x=np.zeros(4096))
        plane = bridge.control_plane
        flow = [d for d in plane.decisions if d.governor == "flow"] if plane else []
        return sum(bridge.step_costs[FLOW_WARMUP:]), flow, decision_log(bridge)

    results, _ = in_transit(
        1, 1, producer_main, latency, 1.0,
        transport=shallow_pipe(chunk, window, 11, pipe_kib, pipe_drop, drop),
        control=only(flow="on", flow_bounds=FLOW_BOUNDS) if adaptive else None,
    )
    return results[0]


@pytest.fixture(scope="module")
def flow_sweep():
    """Per link: {"w<W>c<C>" | "adaptive": time}, decisions, events."""
    table, decisions, events = {}, {}, {}
    for link in FLOW_LINKS:
        table[link] = {f"w{w}c{c}": run_flow(link, w, c, adaptive=False)[0]
                       for w in WINDOWS for c in CHUNKS}
        table[link]["adaptive"], decisions[link], events[link] = run_flow(
            link, 2 * WINDOWS[0], 2 * CHUNKS[0], adaptive=True)  # mid-grid start
    return table, decisions, events


class TestFlowClaim:
    @pytest.mark.parametrize("link", FLOW_LINKS)
    def test_adaptive_within_1_10x_of_best_static(self, flow_sweep, link):
        row = flow_sweep[0][link]
        best = min(v for k, v in row.items() if k != "adaptive")
        assert row["adaptive"] <= 1.10 * best, row

    @pytest.mark.parametrize("link,order", [
        ("fat-clean", ("w8c8192", "w2c2048")), ("congested", ("w2c2048", "w8c8192")),
    ])
    def test_static_envelope_spreads_1_30x_and_crosses(self, flow_sweep, link, order):
        """No single static corner wins both ends of the sweep."""
        row = flow_sweep[0][link]
        statics = [v for k, v in row.items() if k != "adaptive"]
        assert max(statics) >= 1.30 * min(statics), row
        assert row[order[0]] < row[order[1]], row  # winner < loser

    def test_chunk_climbs_when_clean_and_shrinks_when_congested(self, flow_sweep):
        _, decisions, events = flow_sweep
        assert all(events.values())  # every link logged decisions
        assert any("chunk=8192" in d.action for d in decisions["fat-clean"])
        assert any("multiplicative decrease" in d.reason
                   for d in decisions["congested"])


# -- array: adaptive repartitioning vs block and cyclic ----------------------------


def run_array(skew: float, mode: str) -> dict:
    """One 4-rank Jacobi stencil, hotspot rows costing ``skew`` x more
    on 11 of 128 blocks at full size — indivisible by the rank count,
    so only a cost-weighted re-cut balances it."""
    fresh_substrate(f"array-{mode}-{skew:g}")
    adaptive = mode == "adaptive"
    config = StencilConfig(
        length=2048, steps=16, block_rows=128, compute_rate=2.0e6,
        hotspot=(0.0, 0.0859375), hotspot_cost=skew, hotspot_from=1,
        partitioner="block" if adaptive else mode,  # adaptive starts as block
    )

    def main(comm):
        plane = (ControlPlane(only(repartition="on", interval="4"), comm=comm)
                 if adaptive else None)
        workload = StencilWorkload(comm, config, plane=plane,
                                   adaptive=adaptive, interval=4)
        workload.run()
        elapsed = current_clock().now  # before summary/close align clocks
        summary = workload.summary()
        workload.close()
        return elapsed, summary

    out = run_spmd(4, main, cost=CommCostModel(latency=us(20.0), bandwidth=gbs(2.0)))
    return {"makespan": max(e for e, _ in out), "checksum": out[0][1]["checksum"],
            "repartitions": out[0][1]["repartitions"]}


@pytest.fixture(scope="module")
def array_sweep():
    return {skew: {mode: run_array(skew, mode)
                   for mode in ("block", "cyclic", "adaptive")}
            for skew in (0.0, 6.0)}


def best_static_makespan(runs: dict) -> float:
    """Best of block and cyclic; every layout computed the same field."""
    checksums = [r["checksum"] for r in runs.values()]
    assert max(checksums) - min(checksums) <= 1e-9, checksums
    return min(runs["block"]["makespan"], runs["cyclic"]["makespan"])


class TestArrayClaim:
    def test_adaptive_beats_best_static_under_skew_6(self, array_sweep):
        runs = array_sweep[6.0]
        assert runs["adaptive"]["makespan"] < best_static_makespan(runs)
        assert runs["adaptive"]["repartitions"]

    def test_uniform_load_within_10pct_and_never_repartitions(self, array_sweep):
        runs = array_sweep[0.0]
        assert runs["adaptive"]["makespan"] <= 1.10 * best_static_makespan(runs)
        assert runs["adaptive"]["repartitions"] == 0


# -- service: weighted-fair admission vs naive sharing -----------------------------

HI, TENANTS, PRODUCERS = "hi-pri", 16, 2


def run_tenants(fair: bool) -> dict:
    """15 bulk tenants bursting 3 steps in 4 and one steady high-priority
    tenant spanning all 4 endpoints, whose shallow pipes drop chunks when
    the tenants' summed in-flight bytes (the LoadBoard) overflow them."""
    fresh_substrate(f"service-{fair}")
    transport = shallow_pipe(4096, 8, seed=23, pipe_kib=48, pipe_drop=0.5)
    names = [HI] + [f"bulk{i:02d}" for i in range(TENANTS - 1)]
    config = ServiceConfig(
        pipelines=tuple(
            PipelineSpec(name=name, weight=8.0 if name == HI else 1.0,
                         ranks=tuple(range(i * PRODUCERS, (i + 1) * PRODUCERS)),
                         transport=transport, collective=name == HI)
            for i, name in enumerate(names)
        ),
        budget=32, skew=2.0, cooldown=2, interval=2,
    )

    def producer_main(sim_comm, bridge):
        tenant = sim_comm.rank // PRODUCERS
        mine = names[tenant]
        column = np.full(256 if mine == HI else 2048, float(sim_comm.rank))
        for step in range(16):
            on = mine == HI or (step + tenant) % 4 < 3
            publish(bridge, step, mine if on else None, x=column)
        plane = bridge.control_plane if sim_comm.rank == 0 else None
        # p99 is scored after the first control rounds have actuated.
        return (mine, bridge.pipeline_step_costs[mine][4:], sum(bridge.step_costs),
                bridge.pipeline_metrics(mine)["raw_bytes"],
                [d.governor for d in plane.decisions] if plane else [])

    results, _ = run_service(
        config, producer_main,
        {name: (lambda n=name: [StubAnalysis(n)]) for name in names},
        m=TENANTS * PRODUCERS, n=4,
        cost=CommCostModel(latency=us(40.0), bandwidth=gbs(1.0)),
        control=only(quota="on", interval="2") if fair else None,
        load_board=LoadBoard(),
    )
    hi = [c for tenant, costs, *_ in results if tenant == HI for c in costs]
    p50, p99 = np.percentile(hi, (50, 99), method="inverted_cdf")
    return {"hi_p50": p50, "hi_p99": p99,
            "governors": [g for r in results for g in r[4]],
            "throughput": sum(r[3] for r in results) / max(r[2] for r in results)}


@pytest.fixture(scope="module")
def admission():
    return run_tenants(fair=False), run_tenants(fair=True)


class TestServiceClaim:
    def test_fair_admission_cuts_the_hi_priority_p99(self, admission):
        naive, fair = admission
        assert fair["hi_p99"] < naive["hi_p99"]
        # Not by luck of thread arrival: no fair tail step paid a backoff.
        assert fair["hi_p99"] < fair["hi_p50"] + BACKOFF

    def test_fair_throughput_at_least_0_9x_naive(self, admission):
        naive, fair = admission
        assert fair["throughput"] >= 0.9 * naive["throughput"]

    def test_quota_decides_in_fair_mode_and_naive_runs_no_rounds(self, admission):
        naive, fair = admission
        assert "quota" in fair["governors"] and naive["governors"] == []

    def test_naive_p99_repeats_bit_for_bit(self, admission):
        """Congestion loss reads the in-flight bytes of every tenant,
        which the LoadBoard answers in simulated time."""
        naive, _fair = admission
        for _ in range(2):
            assert run_tenants(fair=False)["hi_p99"] == naive["hi_p99"]


# -- control: the codec governor vs both static codecs; lockstep vs async ---------


def ship_quantized(codec: str, bandwidth: float, m=2, n=1, rows=8000, steps=56):
    """Total ship time, decision events and the endpoints of ``m``
    producers sending quantized (compressible) rows to ``n``."""
    fresh_substrate(f"codec-{codec}-{bandwidth}")

    def producer_main(sim_comm, bridge):
        rng = np.random.default_rng(sim_comm.rank)
        x = np.round(rng.standard_normal(rows), 2)
        for step in range(steps):
            publish(bridge, step, x=x, mass=np.full(rows, 0.01))
        return sum(bridge.step_costs), decision_log(bridge)

    results, endpoints = in_transit(
        m, n, producer_main, 5.0, bandwidth,
        transport=TransportConfig(compression=codec),
        control=ControlConfig() if codec == "adaptive" else None,
    )
    return sum(t for t, _ in results), [e for _, evs in results for e in evs], endpoints


def run_mode(cost: float, mode: ExecutionMethod) -> float:
    """Elapsed time of 64 one-second solver steps, each followed by
    ``cost`` seconds of in situ analysis run under ``mode``."""
    fresh_substrate(f"mode-{mode.value}-{cost}")
    bridge, heavy = Bridge(), StubAnalysis(cost=cost)
    heavy.set_execution_method(mode)
    bridge.initialize(analyses=[heavy])
    clk, start = current_clock(), current_clock().now
    for step in range(64):
        clk.advance(1.0)
        publish(bridge, step, x=np.zeros(1024))
    bridge.finalize()
    return clk.now - start


@pytest.fixture(scope="module")
def codec_sweep():
    return {bw: {codec: ship_quantized(codec, bw)[:2]
                 for codec in ("none", "zlib", "adaptive")}
            for bw in (0.25, 50.0)}


def assert_within_1_05x_at_both_ends(sweep, statics):
    for point, row in sweep.items():
        best = min(row[s][0] for s in statics)
        assert row["adaptive"][0] <= 1.05 * best, (point, row)
    # The governor switched somewhere on the sweep, visibly.
    assert any(row["adaptive"][1] for row in sweep.values())


class TestControlClaim:
    def test_codec_governor_within_1_05x_of_best_static(self, codec_sweep):
        assert_within_1_05x_at_both_ends(codec_sweep, ("none", "zlib"))

    def test_zlib_wins_the_slow_link_and_none_the_fast_one(self, codec_sweep):
        slow, fast = codec_sweep[0.25], codec_sweep[50.0]
        assert slow["zlib"][0] < slow["none"][0]
        assert fast["none"][0] < fast["zlib"][0]

    def test_asynchronous_wins_the_heavy_step_cost(self):
        assert (run_mode(1.2, ExecutionMethod.ASYNCHRONOUS)
                < run_mode(1.2, ExecutionMethod.LOCKSTEP))


# -- transport: compression pays on a slow fabric ----------------------------------


def ship_on_slow_fabric(codec: str):
    """Ship time, wire and raw bytes, and the node's Chrome trace of a
    4-to-2 run over 1 GB/s (at 25 GB/s zlib's CPU charge outweighs it)."""
    ship, _, endpoints = ship_quantized(codec, 1.0, m=4, n=2, rows=20_000, steps=2)
    assert all(r.steps_processed == 2 for r in endpoints)
    metrics = [m for r in endpoints for m in r.receiver_metrics.values()]
    return (ship, sum(m.wire_bytes for m in metrics),
            sum(m.raw_bytes for m in metrics), chrome_trace(get_node().timelines()))


class TestTransportClaim:
    def test_zlib_cuts_wire_bytes_and_ship_time_on_a_1_gbs_fabric(self):
        none_ship, none_wire, raw, _ = ship_on_slow_fabric("none")
        zlib_ship, zlib_wire, zlib_raw, events = ship_on_slow_fabric("zlib")
        assert zlib_raw == raw and zlib_wire < none_wire
        assert zlib_ship < none_ship
        # Encodes and sends land on the node's ledger, hence in the trace.
        spans = {e["name"].split()[0] for e in events if e.get("ph") == "X"}
        assert {"encode", "send"} <= spans
