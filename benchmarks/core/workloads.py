"""The five benchmark workloads.

Each ``build_*`` turns ``(seed, quick)`` into a *repetition*: a
callable ``rep(tracer, traced)`` that runs the workload once from a
fresh substrate, checks every output, and returns one result dict::

    {"sim_makespan_s", "sim_wire_bytes", "attempted", "failed",
     "failures": [...], "layers": {...}}

``layers`` carries the workload's traced per-layer counters and is
filled only when ``traced`` is set.  A builder may also return an
``extras()`` callable: per-layer numbers that need launches of their
own and so run after, never inside, the traced repetition.  The seed is the only source of
randomness: it derives every fault-injector, initial-condition and
schedule seed here, and the library receives only the finished
configs.  The seed never changes the *amount* of work (rows, steps,
ranks), so wall time is comparable across seeds.

Determinism recipe (see README): patient retry policy (5 s wall stall
guard that never fires), seeded ``with_faults`` loss only, never the
shallow-pipe ``congestion_*`` loss, and a ``LoadBoard`` only as a
read-only counter on the traced pass.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import replace
import time
import zlib

import numpy as np

from repro.errors import ReproError
from repro.hamr.pool import pool_for
from repro.hamr.runtime import current_clock
from repro.hw.clock import EventCategory, merge_events
from repro.hw.node import VirtualNode, get_node, set_node
from repro.hw.spec import NodeSpec
from repro.mpi.comm import CommCostModel, run_spmd
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport.config import TransportConfig
from repro.transport.metrics import (
    reset_transport_timelines,
    transport_timelines,
)
from repro.transport.retry import RetryPolicy
from repro.units import KiB, gbs, us
from tracing import Tracer

#: The wall stall guard must never fire: retransmits are scheduled by
#: the seeded delivery verdicts, not by the wall clock.
PATIENT = RetryPolicy(max_retries=40, ack_timeout=5.0)


def derive(seed: int, label: str) -> int:
    """A stable sub-seed of ``seed`` for one named consumer."""
    return zlib.crc32(f"{int(seed)}:{label}".encode()) & 0x7FFFFFFF


class Checks:
    """Counts output checks: every one attempted, the failed ones named."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def guard(self, label: str, fn, *args, **kwargs):
        """Run one library launch; a structured error is a counted failure.

        Returns ``fn``'s result, or None when it raised.  The culprit
        (error class, message, ``details`` of the error and its cause)
        goes into the failure label instead of crashing the run.
        """
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (ReproError, AssertionError) as exc:
            cause = exc.__cause__
            details = dict(getattr(cause, "details", {}) or {})
            details.update(getattr(exc, "details", {}) or {})
            self.failures.append(
                f"{label}: {type(exc).__name__}: {exc} {details or ''}".strip()
            )
            return None


def _result(checks: Checks, makespan: float, wire_bytes: int, layers: dict):
    return {
        "sim_makespan_s": float(makespan),
        "sim_wire_bytes": int(wire_bytes),
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:8],
        "layers": layers,
    }


def scrub(name: str) -> None:
    """Fresh node, streams, pools, clock — and no stale timelines."""
    fresh_substrate(name)
    reset_transport_timelines()


def quantised_field(rows: int, seed: int) -> np.ndarray:
    """Seeded float64 values on a 1/64 grid: compressible the way
    smooth simulation fields are, so zlib does real work on them."""
    rng = np.random.default_rng(seed)
    return np.round(rng.normal(size=rows) * 64.0) / 64.0


class SubstrateCounters:
    """Public hw/hamr counters, folded in after each library launch."""

    def __init__(self):
        self.events = 0
        self.busy = {c.value: 0.0 for c in EventCategory}
        self.pool_hits = 0
        self.pool_misses = 0

    def collect(self) -> None:
        resources = list(get_node().iter_resources())
        timelines = [
            tl for r in resources for tl in (r.timeline, r.copy_timeline)
        ] + transport_timelines()
        for event in merge_events(timelines):
            self.events += 1
            self.busy[event.category.value] += event.duration
        for r in resources:
            pool = pool_for(r)
            self.pool_hits += pool.hits
            self.pool_misses += pool.misses

    def layers(self) -> dict:
        acquires = self.pool_hits + self.pool_misses
        out = {
            "hw.sim_events": self.events,
            "hamr.pool_hit_frac": (
                self.pool_hits / acquires if acquires else 0.0
            ),
        }
        for category, seconds in self.busy.items():
            out[f"hw.sim_busy_s.{category}"] = seconds
        return out


class WireCounters:
    """Sender-side ``TransportMetrics.as_dict`` rows, summed."""

    FIELDS = (
        "raw_bytes", "wire_bytes", "chunks_sent", "acks_received", "retries",
    )

    def __init__(self):
        self.total = {f: 0 for f in self.FIELDS}
        self.ack_latency: list[float] = []

    def add(self, rows: list[dict]) -> None:
        for row in rows:
            for f in self.FIELDS:
                self.total[f] += row[f]
            if row["ack_samples"]:
                self.ack_latency.append(row["ack_latency"])

    @property
    def wire_bytes(self) -> int:
        return self.total["wire_bytes"]

    def layers(self) -> dict:
        t = self.total
        return {
            "transport.retries": t["retries"],
            "transport.delivered_frac": (
                t["acks_received"] / t["chunks_sent"]
                if t["chunks_sent"] else 0.0
            ),
            "transport.compression_ratio": (
                t["raw_bytes"] / t["wire_bytes"] if t["wire_bytes"] else 0.0
            ),
            "transport.ack_rtt_sim_us": (
                1e6 * sum(self.ack_latency) / len(self.ack_latency)
                if self.ack_latency else 0.0
            ),
        }


def _sender_rows(bridge) -> list[dict]:
    metrics = bridge.metrics
    if metrics is None:
        return []
    flows = metrics.values() if isinstance(metrics, dict) else [metrics]
    return [m.as_dict() for m in flows]


class CountingAnalysis(AnalysisAdaptor):
    """An endpoint back-end that counts what reached it and does no math."""

    def __init__(self, mesh: str):
        super().__init__(f"count-{mesh}")
        self.mesh = mesh
        self.set_device_id(-1)
        self.rows = 0
        self.crc = 0

    def acquire(self, data, deep):
        table = data.get_mesh(self.mesh)
        self.rows += table.n_rows
        for name in table.column_names:
            self.crc = zlib.crc32(
                np.ascontiguousarray(table.column(name).as_numpy_host()),
                self.crc,
            )
        return None

    def process(self, payload, comm, device_id):
        pass


def _reporting(producer_main, tracer):
    """Wrap a service ``producer_main`` so each rank reports its clock,
    its senders' counters and its control-plane log on return."""

    def main(sim_comm, bridge):
        out = producer_main(sim_comm, _SpanBridge(bridge, tracer, sim_comm.rank))
        plane = bridge.control_plane
        return {
            "out": out,
            "clock": current_clock().now,
            "senders": _sender_rows(bridge),
            "decisions": (
                [(d.governor, d.action) for d in plane.decisions]
                if plane is not None else []
            ),
            "rounds": sim_comm.coordination_epoch,
        }

    return main


class _SpanBridge:
    """Puts a span around every ``bridge.execute`` a producer makes."""

    def __init__(self, inner, tracer, rank: int):
        self._inner = inner
        self._tracer = tracer
        self._rank = rank

    def execute(self, data):
        with self._tracer.span("bridge.execute", self._rank):
            return self._inner.execute(data)

    def __getattr__(self, item):
        return getattr(self._inner, item)


def _control_layers(results: list[dict]) -> dict:
    """The replicated decision log and round count, read off rank 0."""
    decisions = results[0]["decisions"] if results else []
    return {
        "control.decisions": len(decisions),
        "control.coordination_rounds": results[0]["rounds"] if results else 0,
        "service.migrations": sum(
            1 for governor, action in decisions
            if governor == "shard" and action.startswith("migrate")
        ),
    }


# -- insitu_matrix -------------------------------------------------------------


def build_insitu_matrix(seed: int, quick: bool):
    from repro.harness import (
        SmallWorkload,
        execute_small,
        simulate,
        table1_matrix,
        verify_findings,
    )
    from repro.harness.calibrate import scaled_node_spec
    from repro.sensei.execution import ExecutionMethod

    workload = SmallWorkload(
        n_bodies=256 if quick else 512,
        steps=2 if quick else 3,
        n_coordinate_systems=2,
        n_variables=5,
        seed=derive(seed, "newton-ic"),
    )
    node_spec = scaled_node_spec()
    paper_cases = table1_matrix()
    small_cases = table1_matrix(nodes=1)

    def rep(tracer, traced):
        checks = Checks()
        hw = SubstrateCounters()
        with tracer.span("harness.simulate_matrix"):
            findings = verify_findings([simulate(c) for c in paper_cases])
        for name, held in sorted(findings.items()):
            checks.expect(held, f"paper finding {name}")
        makespan, lockstep = 0.0, 0.0
        hidden = []
        for case in small_cases:
            scrub(f"insitu-{case.label}")
            with tracer.span(f"execute_small[{case.label}]"):
                # execute_small itself asserts binned count == n_bodies.
                result = checks.guard(
                    case.label, execute_small, case, workload,
                    node_spec=node_spec,
                )
            if result is None:
                continue
            makespan += result.total_time
            if case.method is ExecutionMethod.LOCKSTEP:
                lockstep += result.total_time
            elif result.insitu_actual_per_iter > 0:
                hidden.append(
                    1.0 - result.insitu_apparent_per_iter
                    / result.insitu_actual_per_iter
                )
            if traced:
                hw.collect()
        layers = {}
        if traced:
            layers = hw.layers()
            layers["sensei.async_hidden_frac"] = (
                sum(hidden) / len(hidden) if hidden else 0.0
            )
            layers["sensei.lockstep_sim_s"] = lockstep
        return _result(checks, makespan, 0, layers)

    return rep, None


# -- service_fanin -------------------------------------------------------------


def build_service_fanin(seed: int, quick: bool):
    from repro.control.plan import ControlConfig
    from repro.service import LoadBoard, PipelineSpec, ServiceConfig, run_service

    tenants, endpoints = 8, 4
    producers_per = 2 if quick else 8
    steps = 8 if quick else 12
    period, on_steps = 4, 3
    hi_rows, bulk_rows = 256, 2048
    interval = 2
    m = tenants * producers_per
    names = ["viz"] + [f"bulk{i}" for i in range(1, tenants)]

    # The makespan is a maximum over 64 producers, so it is set by the
    # unluckiest one: with the default 50 us first backoff a chunk
    # dropped twice in a row moved it by 10 % from seed to seed.  A
    # 10 us first backoff (a quarter of the 40 us link latency) halves
    # that spread; loss still costs a backoff and a retransmit.
    retry = replace(PATIENT, backoff_base=us(10.0))
    transport = TransportConfig(
        compression="none", chunk_bytes=4 * KiB, max_inflight=8,
        retry=retry,
    ).with_faults(drop=0.05, seed=derive(seed, "fanin-faults"))
    config = ServiceConfig(
        pipelines=tuple(
            PipelineSpec(
                name=name,
                weight=8.0 if i == 0 else 1.0,
                ranks=tuple(range(i * producers_per, (i + 1) * producers_per)),
                transport=transport,
                # The weight-8 tenant is the collective viz consumer:
                # it spans every endpoint and contends with the bulk
                # tenants sharded onto each of them.
                collective=(i == 0),
            )
            for i, name in enumerate(names)
        ),
        budget=32, skew=2.0, cooldown=2, interval=interval,
    )
    control = ControlConfig.from_xml_attrs({
        "execution": "off", "codec": "off", "placement": "off",
        "pool": "off", "flow": "off", "quota": "on",
        "interval": str(interval), "seed": str(derive(seed, "fanin-control")),
    })
    cost = CommCostModel(latency=us(40.0), bandwidth=gbs(1.0))
    # Bulk tenants burst 3 steps in 4.  The seed deals the same multiset
    # of phases to different tenants, so the schedule moves with the
    # seed while the tenants publishing at each step, and the bytes
    # published, do not.
    phase = [p % period for p in range(len(names) - 1)]
    random.Random(derive(seed, "fanin-schedule")).shuffle(phase)
    phase = [0] + phase
    owner = {
        rank: i for i, name in enumerate(names)
        for rank in config.spec(name).ranks
    }
    columns = {
        rank: np.full(hi_rows if i == 0 else bulk_rows, float(rank))
        for rank, i in owner.items()
    }

    def publishes(tenant: int, step: int) -> bool:
        return tenant == 0 or (step + phase[tenant]) % period < on_steps

    expected_rows = {
        name: producers_per * (hi_rows if i == 0 else bulk_rows)
        * sum(publishes(i, s) for s in range(steps))
        for i, name in enumerate(names)
    }

    def rep(tracer, traced):
        checks = Checks()
        scrub("service-fanin")
        board = None
        if traced:
            # Read-only counter: nothing on a decision path consults it
            # while the congestion model is off.
            board = LoadBoard()
            tracer.poll = lambda: max(board.snapshot().values(), default=0)

        def producer_main(sim_comm, bridge):
            tenant = owner[sim_comm.rank]
            name = names[tenant]
            for step in range(steps):
                meshes = {}
                if publishes(tenant, step):
                    table = TableData(name)
                    table.add_host_column("x", columns[sim_comm.rank])
                    meshes[name] = table
                adaptor = TableDataAdaptor(meshes)
                adaptor.set_step(step, step * 1e-3)
                bridge.execute(adaptor)
            return None

        registry = {n: (lambda n=n: [CountingAnalysis(n)]) for n in names}
        with tracer.span("run_service"):
            out = checks.guard(
                "run_service", run_service, config,
                _reporting(producer_main, tracer), registry,
                m=m, n=endpoints, cost=cost, control=control,
                load_board=board,
            )
        if out is None:
            return _result(checks, 0.0, 0, {})
        results, served = out
        wire = WireCounters()
        for r in results:
            wire.add(r["senders"])
        for name in names:
            rows = sum(
                a.rows for ep in served for a in ep.analyses[name]
            )
            checks.expect(
                rows == expected_rows[name],
                f"{name}: endpoints merged {rows} rows, "
                f"published {expected_rows[name]}",
            )
        layers = {}
        if traced:
            hw = SubstrateCounters()
            hw.collect()
            layers = {**hw.layers(), **wire.layers(), **_control_layers(results)}
            layers["service.endpoint_steps"] = sum(
                ep.steps_processed for ep in served
            )
        return _result(
            checks, max(r["clock"] for r in results), wire.wire_bytes, layers
        )

    return rep, None


# -- bulk_lossy ----------------------------------------------------------------


def build_bulk_lossy(seed: int, quick: bool):
    from repro.sensei.intransit import InTransitLayout, run_in_transit

    steps = 2 if quick else 4
    rows = (128 if quick else 1024) * KiB  # float64 rows: 1 / 8 MiB a step
    mesh = "field"
    transport = TransportConfig(
        compression="zlib", chunk_bytes=64 * KiB, max_inflight=8,
        retry=PATIENT,
    ).with_faults(
        drop=0.05, duplicate=0.02, reorder=0.05, corrupt=0.02,
        seed=derive(seed, "bulk-faults"),
    )
    cost = CommCostModel(latency=us(20.0), bandwidth=gbs(1.0))
    fields = [
        quantised_field(rows, derive(seed, f"bulk-field-{step}"))
        for step in range(steps)
    ]
    expected_crc = 0
    for field in fields:
        expected_crc = zlib.crc32(field, expected_crc)

    def rep(tracer, traced):
        checks = Checks()
        scrub("bulk-lossy")

        def producer_main(sim_comm, bridge):
            for step, field in enumerate(fields):
                table = TableData(mesh)
                table.add_host_column("rho", field)
                adaptor = TableDataAdaptor({mesh: table})
                adaptor.set_step(step, step * 1e-3)
                bridge.execute(adaptor)
            return None

        with tracer.span("run_in_transit"):
            out = checks.guard(
                "run_in_transit", run_in_transit, InTransitLayout(1, 1),
                _reporting(producer_main, tracer),
                lambda: [CountingAnalysis(mesh)],
                mesh_name=mesh, transport=transport, cost=cost,
            )
        if out is None:
            return _result(checks, 0.0, 0, {})
        results, served = out
        sink = served[0].analyses[0]
        checks.expect(
            sink.rows == rows * steps,
            f"endpoint merged {sink.rows} rows, published {rows * steps}",
        )
        checks.expect(
            sink.crc == expected_crc, "endpoint bytes differ from published"
        )
        wire = WireCounters()
        wire.add(results[0]["senders"])
        layers = {}
        if traced:
            hw = SubstrateCounters()
            hw.collect()
            layers = {**hw.layers(), **wire.layers(), **_control_layers(results)}
            layers["service.endpoint_steps"] = served[0].steps_processed
        return _result(checks, results[0]["clock"], wire.wire_bytes, layers)

    return rep, None


# -- array_adaptive ------------------------------------------------------------


def build_array_adaptive(seed: int, quick: bool):
    from repro.array.stencil import StencilConfig, StencilWorkload
    from repro.control.plan import ControlConfig, ControlPlane

    ranks = 4 if quick else 8
    interval = 4
    stencil = StencilConfig(
        length=4096 if quick else 16384,
        steps=8 if quick else 32,
        block_rows=128,
        compute_rate=2.0e6,
        # 11 of 128 ownership blocks: indivisible by the rank count, so
        # only a cost-weighted re-cut can balance it.
        hotspot=(0.0, 0.0859375),
        hotspot_cost=6.0,
        hotspot_from=1,
    )
    transport = TransportConfig(retry=PATIENT).with_faults(
        drop=0.05, seed=derive(seed, "array-faults"),
    )
    control = ControlConfig.from_xml_attrs({
        "execution": "off", "codec": "off", "placement": "off",
        "pool": "off", "repartition": "on", "interval": str(interval),
        "seed": str(derive(seed, "array-control")),
    })
    cost = CommCostModel(latency=us(20.0), bandwidth=gbs(2.0))

    def rep(tracer, traced):
        checks = Checks()
        hw = SubstrateCounters()
        summaries = {}
        makespan = 0.0
        layers = {}

        def launch(adaptive: bool):
            def main(comm):
                plane = ControlPlane(control, comm=comm) if adaptive else None
                workload = StencilWorkload(
                    comm, stencil, transport=transport, plane=plane,
                    adaptive=adaptive, interval=interval,
                )
                for k in range(1, stencil.steps + 1):
                    with tracer.span("workload.step", comm.rank):
                        workload.step(k)
                # Rank makespan before the collective summary/close
                # aligns the clocks.
                elapsed = current_clock().now
                summary = workload.summary()
                workload.close()
                return {
                    "clock": elapsed,
                    "summary": summary,
                    "decisions": len(plane.decisions) if plane else 0,
                    "rounds": (
                        workload.coordinator.rounds
                        if workload.coordinator is not None else 0
                    ),
                }

            return run_spmd(ranks, main, cost=cost)

        for mode in ("static", "adaptive"):
            scrub(f"array-{mode}")
            # One device per rank: shards live in pooled device buffers,
            # and two ranks sharing a device's pool and stream would
            # order its alloc/free charges by thread arrival.
            set_node(VirtualNode(NodeSpec().with_devices(ranks)))
            with tracer.span(f"stencil[{mode}]"):
                out = checks.guard(mode, launch, mode == "adaptive")
            if out is None:
                continue
            makespan += max(r["clock"] for r in out)
            summaries[mode] = out
            if traced:
                hw.collect()
        if len(summaries) == 2:
            static, adaptive = (
                summaries[m][0]["summary"] for m in ("static", "adaptive")
            )
            checks.expect(
                abs(static["checksum"] - adaptive["checksum"]) <= 1e-9,
                f"layouts disagree on physics: {static['checksum']!r} "
                f"vs {adaptive['checksum']!r}",
            )
            checks.expect(
                adaptive["repartitions"] >= 1,
                "the adaptive layout never repartitioned",
            )
        halo = sum(
            r["summary"]["halo_bytes"] for o in summaries.values() for r in o
        )
        handoff = sum(
            r["summary"]["handoff_bytes"] for o in summaries.values() for r in o
        )
        if traced:
            adaptive_out = summaries.get("adaptive", [])
            layers = hw.layers()
            layers.update({
                "array.halo_bytes": halo,
                "array.handoff_bytes": handoff,
                "array.repartitions": (
                    adaptive_out[0]["summary"]["repartitions"]
                    if adaptive_out else 0
                ),
                "control.decisions": max(
                    (r["decisions"] for r in adaptive_out), default=0
                ),
                "control.coordination_rounds": max(
                    (r["rounds"] for r in adaptive_out), default=0
                ),
            })
        # Halo and handoff flows are peer-to-peer ReliableSender flows
        # the exchanger owns; their payload bytes are the wire witness.
        return _result(checks, makespan, halo + handoff, layers)

    return rep, None


# -- trace_replay --------------------------------------------------------------


def build_trace_replay(seed: int, quick: bool):
    from repro.control.plan import ControlConfig
    from repro.service import run_service
    from repro.trace import record_service_run, replay_trace
    from repro.workloads.particle import ParticleConfig, particle_producer
    from repro.workloads.request_stream import (
        RequestStreamConfig,
        TenantSpec,
        request_stream_producer,
    )
    from repro.service.plan import PipelineSpec, ServiceConfig

    # p_burst = p_calm = 1 makes every tenant's Markov chain alternate
    # calm and burst batches whatever the seed draws, so the rows
    # published are the same for every seed; the seed still sets the
    # payload values and every fault draw.
    stream = RequestStreamConfig(
        tenants=tuple(
            TenantSpec(
                f"t{i}", weight=2.0 if i == 0 else 1.0,
                base_rows=128 * (1 + i % 3), burst_rows=1024 * (1 + i % 2),
                p_burst=1.0, p_calm=1.0,
                join_step=i - 2 if i >= 3 else 0,
            )
            for i in range(3 if quick else 5)
        ),
        steps=6 if quick else 10, seed=derive(seed, "replay-stream"),
    )
    particles = ParticleConfig(
        n_particles=1024 if quick else 2048, length=128,
        steps=6 if quick else 10, seed=derive(seed, "replay-particles"),
        block_rows=8, compute_rate=2.0e5,
    )

    def lossy(label, **faults):
        return TransportConfig(
            chunk_bytes=1024, retry=PATIENT,
        ).with_faults(seed=derive(seed, label), **faults)

    def governed(**attrs):
        return ControlConfig.from_xml_attrs({
            "seed": str(derive(seed, "replay-control")),
            **{k: str(v) for k, v in attrs.items()},
        })

    shapes = [
        {
            "name": "request-stream",
            "config": stream.service_config(
                lossy("replay-stream-faults", drop=0.06)
            ),
            "producer_main": request_stream_producer(stream),
            "m": 4, "n": 2,
            "control": governed(quota="on", interval=2),
        },
        {
            "name": "particle",
            "config": ServiceConfig(pipelines=(PipelineSpec(
                name="particles", mesh="particles", shard_size=1,
                collective=True,
                transport=lossy(
                    "replay-particle-faults", drop=0.08, duplicate=0.04,
                ),
            ),)),
            # The density grid's halo/handoff flows are peer-to-peer
            # senders of their own.  Left at the default TransportConfig
            # their stall guard is 0.05 s of *wall* time: on a loaded
            # machine a neighbour that serves late gets a retransmit
            # and a simulated backoff, and the publish times move.
            "producer_main": particle_producer(
                particles, transport=TransportConfig(retry=PATIENT),
                adaptive=True, interval=4, mesh="particles",
            ),
            "m": 4, "n": 1,
            "control": governed(repartition="on", interval=4),
        },
    ]

    def record(shape, tracer, recorder_on: bool = True):
        """One seeded service run; ``(trace, producer reports)``."""
        scrub(f"replay-{shape['name']}")
        main = _reporting(shape["producer_main"], tracer)
        if not recorder_on:
            run_service(
                shape["config"], main, None,
                m=shape["m"], n=shape["n"], control=shape["control"],
            )
            return None
        trace, producers, _endpoints = record_service_run(
            shape["name"], shape["config"], main,
            m=shape["m"], n=shape["n"], control=shape["control"],
            meta={"workload": shape["name"], "seed": int(seed)},
        )
        return trace, producers

    def makespan_of(trace) -> float:
        # The replayer's scripted producers report no clocks, so both
        # legs read the largest simulated publish/fin entry time.
        return max(
            (e["entry"] for e in trace.events if "entry" in e), default=0.0
        )

    def rep(tracer, traced):
        checks = Checks()
        hw = SubstrateCounters()
        wire = WireCounters()
        control_layers = {}
        makespan, wire_bytes = 0.0, 0
        events = trace_bytes = 0
        record_s = replay_s = 0.0
        for shape in shapes:
            t0 = time.perf_counter()
            with tracer.span(f"record_service_run[{shape['name']}]"):
                out = checks.guard(
                    f"record {shape['name']}", record, shape, tracer
                )
            t1 = time.perf_counter()
            if out is None:
                continue
            trace, producers = out
            if traced:
                hw.collect()
            recorded = trace.to_jsonl()
            scrub(f"replay-{shape['name']}-again")
            with tracer.span(f"replay_trace[{shape['name']}]"):
                replay = checks.guard(
                    f"replay {shape['name']}", replay_trace, recorded
                )
            t2 = time.perf_counter()
            if replay is None:
                continue
            if traced:
                hw.collect()
            checks.expect(
                replay.trace.to_jsonl() == recorded,
                f"{shape['name']}: re-recording is not byte-identical",
            )
            for t in (trace, replay.trace):
                makespan += makespan_of(t)
                wire_bytes += sum(c["wire_bytes"] for c in t.counters)
            record_s += t1 - t0
            replay_s += t2 - t1
            events += len(trace.events)
            trace_bytes += len(recorded)
            for r in producers:
                wire.add(r["senders"])
            for key, value in _control_layers(producers).items():
                control_layers[key] = control_layers.get(key, 0) + value
        layers = {}
        if traced:
            layers = {**hw.layers(), **wire.layers(), **control_layers}
            layers.update({
                "trace.events": events,
                "trace.bytes": trace_bytes,
                "trace.replay_over_record": (
                    replay_s / record_s if record_s else 0.0
                ),
            })
        return _result(checks, makespan, wire_bytes, layers)

    def extras():
        """Recorder cost: the same scenarios with and without one bound."""
        walls = {True: [], False: []}
        idle = Tracer(False)
        for _ in range(3):
            for recorder_on in (True, False):
                t0 = time.perf_counter()
                for shape in shapes:
                    record(shape, idle, recorder_on)
                walls[recorder_on].append(time.perf_counter() - t0)
        return {
            "trace.record_overhead_frac": (
                statistics.median(walls[True])
                / statistics.median(walls[False]) - 1.0
            ),
        }

    return rep, extras


BUILDERS = {
    "insitu_matrix": build_insitu_matrix,
    "service_fanin": build_service_fanin,
    "bulk_lossy": build_bulk_lossy,
    "array_adaptive": build_array_adaptive,
    "trace_replay": build_trace_replay,
}
