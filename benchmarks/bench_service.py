"""Service-plane benchmark: weighted-fair admission vs naive sharing.

A population of bulk pipelines with bursty on/off arrivals shares a
small pool of in-transit endpoints with one latency-sensitive
high-priority tenant.  Every pipeline's reliable channel rides the
same shallow-pipe congestion model (the :class:`LoadBoard` lets the
fault injector see the *sum* of all tenants' in-flight bytes per
endpoint), so when a burst of bulk tenants floods an endpoint the
high-priority tenant's chunks start dropping and its step latency
tail grows retransmission backoff.

Two runs of the identical seeded workload are compared:

- **naive** — no admission control: every sender keeps its static
  credit window, first-come first-served on the shared pipe (the
  pre-service behavior);
- **fair** — ``<control quota="on">``: the QuotaGovernor partitions
  each endpoint's credit budget by tenant weight (the high-priority
  tenant carries weight ``HI_WEIGHT``), reclaiming idle bursty
  tenants' quota AIMD-style, while the ShardGovernor may migrate a
  dominant tenant off a skewed endpoint at a step boundary.

The benchmark fails (exit 1) unless weighted-fair admission beats
naive sharing on p99 step latency for the high-priority tenant while
aggregate throughput stays within ``THROUGHPUT_TOLERANCE``.  The full
shape drives 16 pipelines x 12 producers + 8 endpoints = 200 simulated
ranks; ``--quick`` is the CI smoke shape (one producer per pipeline).
``--json`` (default ``BENCH_service.json``) records the headline
numbers for the perf trajectory.

Run standalone: ``python benchmarks/bench_service.py [--quick]``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from repro.control.plan import ControlConfig
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.service import LoadBoard, PipelineSpec, ServiceConfig, run_service
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import KiB, gbs, us

try:
    from benchmarks.emit import add_json_arg, percentile, write_bench_json
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from emit import add_json_arg, percentile, write_bench_json

#: Fair admission must not cost more than this fraction of naive
#: aggregate throughput.
THROUGHPUT_TOLERANCE = 0.10

HI = "hi-pri"
HI_WEIGHT = 8.0
SEED = 23
BANDWIDTH = gbs(1.0)
LATENCY = us(40.0)

#: Generous retries (bursts cause storms) and a backoff curve heavy
#: enough that loss costs simulated time.
RETRY = RetryPolicy(
    max_retries=60, backoff_base=us(500.0), backoff_max=us(5000.0),
)


@dataclass(frozen=True)
class Shape:
    """One benchmark scale: rank counts, workload sizes, fair budget."""

    pipelines: int        # bulk tenants + the one high-priority tenant
    producers_per: int    # dedicated producer ranks per pipeline
    endpoints: int
    steps: int
    budget: int           # per-endpoint credit budget in fair mode
    bulk_rows: int        # float64 rows per bulk producer per step
    hi_rows: int          # rows per high-priority producer per step
    congestion_kib: int   # shallow-pipe capacity per endpoint
    interval: int = 2     # control rounds every this many steps
    warmup: int = 4       # steps the governors get before p99 scoring
    burst_period: int = 4
    burst_on: int = 3     # bulk tenants publish this many steps per period
    congestion_drop: float = 0.5

    @property
    def ranks(self) -> int:
        return self.pipelines * self.producers_per + self.endpoints


FULL = Shape(pipelines=16, producers_per=12, endpoints=8, steps=16,
             budget=96, bulk_rows=2048, hi_rows=256, congestion_kib=144,
             warmup=8)
QUICK = Shape(pipelines=16, producers_per=2, endpoints=4, steps=16,
              budget=32, bulk_rows=2048, hi_rows=256, congestion_kib=48)


class NullAnalysis(AnalysisAdaptor):
    def __init__(self, mesh: str):
        super().__init__(f"null-{mesh}")
        self.mesh = mesh
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return data.get_mesh(self.mesh).n_rows

    def process(self, payload, comm, device_id):
        pass


def bursty(tenant: int, step: int, shape: Shape) -> bool:
    """Deterministic staggered on/off schedule for bulk tenant i."""
    return (step + tenant) % shape.burst_period < shape.burst_on


def _transport(shape: Shape) -> TransportConfig:
    cfg = TransportConfig(
        compression="none", chunk_bytes=4096, max_inflight=8,
        retry=RETRY, pipelined=True,
    )
    return cfg.with_faults(
        drop=0.0, seed=SEED,
        congestion_bytes=shape.congestion_kib * KiB,
        congestion_drop=shape.congestion_drop,
    )


def tenant_names(shape: Shape) -> list[str]:
    """The high-priority tenant plus ``pipelines - 1`` bulk tenants."""
    return [HI] + [f"bulk{i:02d}" for i in range(shape.pipelines - 1)]


def service_config(shape: Shape) -> ServiceConfig:
    transport = _transport(shape)
    specs = []
    for i, name in enumerate(tenant_names(shape)):
        lo = i * shape.producers_per
        specs.append(PipelineSpec(
            name=name,
            weight=HI_WEIGHT if name == HI else 1.0,
            ranks=tuple(range(lo, lo + shape.producers_per)),
            transport=transport,
            # The high-priority tenant is the paper's collective viz
            # consumer: it spans every endpoint, so each endpoint sees
            # it contend with the local bulk tenants.
            collective=(name == HI),
        ))
    return ServiceConfig(
        pipelines=tuple(specs),
        budget=shape.budget,
        skew=2.0,
        cooldown=2,
        interval=shape.interval,
    )


def _fair_control(shape: Shape) -> ControlConfig:
    return ControlConfig.from_xml_attrs(
        {"execution": "off", "codec": "off", "placement": "off",
         "pool": "off", "flow": "off", "quota": "on",
         "interval": str(shape.interval)},
    )


def run_mode(shape: Shape, fair: bool) -> dict:
    """One full service run; returns the per-mode result summary."""
    label = "fair" if fair else "naive"
    fresh_substrate(f"service-{label}")
    config = service_config(shape)
    names = tenant_names(shape)
    owner = {}  # producer rank -> (tenant index, tenant name)
    for i, name in enumerate(names):
        for r in config.spec(name).ranks:
            owner[r] = (i, name)

    def producer_main(sim_comm, bridge):
        idx, mine = owner[sim_comm.rank]
        rows = shape.hi_rows if mine == HI else shape.bulk_rows
        column = np.full(rows, float(sim_comm.rank))
        for step in range(shape.steps):
            meshes = {}
            if mine == HI or bursty(idx, step, shape):
                table = TableData(mine)
                table.add_host_column("x", column)
                meshes[mine] = table
            adaptor = TableDataAdaptor(meshes)
            adaptor.set_step(step, step * 1e-3)
            bridge.execute(adaptor)
        plane = bridge.control_plane
        decisions = (
            [d.governor for d in plane.decisions]
            if plane is not None and sim_comm.rank == 0 else []
        )
        return {
            "tenant": mine,
            "costs": list(bridge.pipeline_step_costs[mine]),
            "total": sum(bridge.step_costs),
            "metrics": bridge.pipeline_metrics(mine),
            "decisions": decisions,
        }

    registry = {name: (lambda n=name: [NullAnalysis(n)]) for name in names}
    results, _endpoints = run_service(
        config, producer_main, registry,
        m=shape.pipelines * shape.producers_per,
        n=shape.endpoints,
        cost=CommCostModel(latency=LATENCY, bandwidth=BANDWIDTH),
        control=_fair_control(shape) if fair else None,
        load_board=LoadBoard(),
    )
    # p99 is scored on steady-state steps: the quota governor only
    # actuates from the first control round, exactly like the flow
    # governor's WARMUP exclusion in bench_flow.
    hi_costs = [
        c for r in results if r["tenant"] == HI
        for c in r["costs"][shape.warmup:]
    ]
    raw_bytes = sum(r["metrics"]["raw_bytes"] for r in results)
    retries = sum(r["metrics"]["retries"] for r in results)
    makespan = max(r["total"] for r in results)
    decisions = {}
    for r in results:
        for governor in r["decisions"]:
            decisions[governor] = decisions.get(governor, 0) + 1
    return {
        "mode": label,
        "hi_p50_s": percentile(hi_costs, 50),
        "hi_p99_s": percentile(hi_costs, 99),
        "throughput_bps": raw_bytes / makespan,
        "raw_bytes": raw_bytes,
        "retries": retries,
        "makespan_s": makespan,
        "decisions": decisions,
    }


def check_service(naive: dict, fair: dict) -> list[str]:
    """Fair beats naive on the hi-pri tail without starving the rest."""
    failures = []
    if fair["hi_p99_s"] >= naive["hi_p99_s"]:
        failures.append(
            f"fair p99 {fair['hi_p99_s']:.4g}s does not beat naive "
            f"{naive['hi_p99_s']:.4g}s for the high-priority tenant"
        )
    floor = (1.0 - THROUGHPUT_TOLERANCE) * naive["throughput_bps"]
    if fair["throughput_bps"] < floor:
        failures.append(
            f"fair throughput {fair['throughput_bps']:.4g} B/s fell "
            f"below {floor:.4g} B/s "
            f"({THROUGHPUT_TOLERANCE:.0%} under naive)"
        )
    if not fair["decisions"].get("quota"):
        failures.append("the quota governor never decided in fair mode")
    if naive["decisions"]:
        failures.append("naive mode unexpectedly ran admission rounds")
    return failures


def format_table(naive: dict, fair: dict) -> str:
    columns = ("hi_p50_s", "hi_p99_s", "throughput_bps", "retries")
    lines = ["  " + f"{'mode':>8}  " + "".join(f"{c:>16}" for c in columns)]
    for row in (naive, fair):
        lines.append(
            f"  {row['mode']:>8}  "
            + "".join(f"{row[c]:>16.4g}" for c in columns)
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small rank count (CI smoke mode)")
    add_json_arg(ap, default="BENCH_service.json")
    args = ap.parse_args(argv)

    shape = QUICK if args.quick else FULL
    print(f"service benchmark: {shape.pipelines} pipelines x "
          f"{shape.producers_per} producers + {shape.endpoints} endpoints "
          f"= {shape.ranks} ranks, {shape.steps} steps")
    naive = run_mode(shape, fair=False)
    fair = run_mode(shape, fair=True)
    failures = check_service(naive, fair)

    print(format_table(naive, fair))
    rounds = ", ".join(
        f"{g}={n}" for g, n in sorted(fair["decisions"].items())
    )
    print(f"fair-mode admission rounds: {rounds or '(none)'}")

    if args.json:
        write_bench_json(
            args.json, "service",
            metrics={
                "pipelines": shape.pipelines,
                "ranks": shape.ranks,
                "steps": shape.steps,
                "naive": naive,
                "fair": fair,
            },
            detail={"quick": bool(args.quick)},
        )
        print(f"metrics written to {args.json}")

    if failures:
        print("\nFAIL: fair-share admission missed the tolerance:")
        for line in failures:
            print(f"  - {line}")
        return 1
    gain = naive["hi_p99_s"] / fair["hi_p99_s"]
    print(f"\nOK: fair admission cut the high-priority p99 by "
          f"{gain:.2f}x with aggregate throughput within "
          f"{THROUGHPUT_TOLERANCE:.0%} of naive")
    return 0


# -- pytest entry points -----------------------------------------------------------


def test_service_bench_quick(benchmark):
    naive, fair = benchmark.pedantic(
        lambda: (run_mode(QUICK, fair=False), run_mode(QUICK, fair=True)),
        rounds=1, iterations=1,
    )
    assert not check_service(naive, fair)
    benchmark.extra_info["hi_p99_gain"] = (
        naive["hi_p99_s"] / fair["hi_p99_s"]
    )


if __name__ == "__main__":
    sys.exit(main())
