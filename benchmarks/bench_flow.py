"""Flow-control benchmark: the AIMD governor vs every static choice.

A drop-rate x link-latency sweep over the reliable transport, with the
two opt-in physics knobs that make window and chunk size matter:

- ``pipelined="true"``: each transmitted chunk charges
  ``latency / in_flight + bytes / bandwidth``, so a deep credit window
  amortizes link latency and a small chunk size multiplies it;
- ``congestion_kib`` / ``congestion_drop``: a shallow-pipe loss model —
  driving more in-flight bytes than the pipe holds inflates the drop
  probability, so a deep window with big chunks triggers retransmission
  storms whose backoff is charged to the simulated clock.

At the fat-and-clean end of the sweep (high latency, no loss) the best
static ``(max_inflight, chunk_bytes)`` is the deep/big corner; at the
congested end (low latency, base drops, a shallow pipe) it is the
shallow/small corner.  No single static wins both.  The adaptive run
(``<control flow="on">``) starts mid-grid, grows its window and chunk
rung on the clean link, shrinks multiplicatively when the congested
pipe pushes the retry-rate EWMA over the hysteresis band, and must land
within ``TOLERANCE`` of the best static at *both* ends — scored on
steady-state steps (after ``WARMUP``) so the comparison measures the
converged window, not the first probe.

Every flow decision is also emitted as a Chrome-trace instant event
(``--trace`` writes the JSON), so window moves are visible on the same
timeline as the transfers they re-shaped.

Run standalone (``python benchmarks/bench_flow.py [--quick]``, exits
nonzero if adaptivity misses the tolerance) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from repro.control.plan import ControlConfig
from repro.hw.trace import chrome_trace
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import KiB, gbs, us

try:
    from benchmarks.emit import add_json_arg, percentile, write_bench_json
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from emit import add_json_arg, percentile, write_bench_json

#: Adaptive must stay within this factor of the best static grid point
#: at both ends of the sweep (steady-state steps).
TOLERANCE = 1.10
#: ...and the static envelope itself must spread at least this much at
#: each end, or the sweep would prove nothing about the knobs.
SPREAD = 1.30

STEPS = 24
WARMUP = 8     # steps the governor gets to converge before scoring
N_ROWS = 4096  # one float64 column: a 32 KiB wire payload per step

#: The static grid the governor competes against (and its bounds).
WINDOWS = (2, 8)
CHUNKS = (2048, 8192)
FLOW_ATTRS = {
    "min_credits": "2", "max_credits": "8",
    "min_chunk": "2048", "max_chunk": "8192",
}

#: Generous retries (congested points see storms) and a backoff curve
#: heavy enough that loss visibly costs simulated time.
RETRY = RetryPolicy(
    max_retries=60, backoff_base=us(500.0), backoff_max=us(5000.0),
)
BANDWIDTH = gbs(1.0)
SEED = 11


@dataclass(frozen=True)
class FlowPoint:
    """One sweep point: a link quality the transport must live with."""

    key: str
    drop: float           # base per-frame loss probability
    latency_us: float     # one-way link latency
    congestion_kib: int   # shallow-pipe capacity (0 = no congestion)
    congestion_drop: float


FULL_POINTS = (
    FlowPoint("fat-clean", drop=0.00, latency_us=400.0,
              congestion_kib=0, congestion_drop=0.0),
    FlowPoint("mid", drop=0.01, latency_us=50.0,
              congestion_kib=16, congestion_drop=0.08),
    FlowPoint("congested", drop=0.02, latency_us=5.0,
              congestion_kib=8, congestion_drop=0.15),
)
QUICK_POINTS = (FULL_POINTS[0], FULL_POINTS[-1])


class NullAnalysis(AnalysisAdaptor):
    def __init__(self):
        super().__init__("null")
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return data.get_mesh("bodies").n_rows

    def process(self, payload, comm, device_id):
        pass


def _transport(point: FlowPoint, window: int, chunk: int) -> TransportConfig:
    cfg = TransportConfig(
        compression="none", chunk_bytes=chunk, max_inflight=window,
        retry=RETRY, pipelined=True,
    )
    return cfg.with_faults(
        drop=point.drop, seed=SEED,
        congestion_bytes=point.congestion_kib * KiB,
        congestion_drop=point.congestion_drop,
    )


def _flow_control() -> ControlConfig:
    return ControlConfig.from_xml_attrs(
        {"execution": "off", "codec": "off", "placement": "off",
         "pool": "off", "flow": "on"},
        flow_attrs=dict(FLOW_ATTRS),
    )


def run_flow_point(point: FlowPoint, window: int, chunk: int,
                   adaptive: bool, steps: int = STEPS):
    """One producer/endpoint run; returns (per-step ship times,
    flow decision dicts, instant events, transport metrics)."""
    label = "adaptive" if adaptive else f"w{window}c{chunk}"
    fresh_substrate(f"flow-{point.key}-{label}")
    cfg = _transport(point, window, chunk)
    control = _flow_control() if adaptive else None

    def producer_main(sim_comm, bridge):
        x = np.zeros(N_ROWS)
        for step in range(steps):
            t = TableData("bodies")
            t.add_host_column("x", x)
            da = TableDataAdaptor({"bodies": t})
            da.set_step(step, step * 1e-3)
            bridge.execute(da)
        plane = bridge.control_plane
        decisions = (
            [d.to_dict() for d in plane.decisions
             if d.governor == "flow"]
            if plane is not None else []
        )
        events = plane.chrome_instant_events() if plane is not None else []
        return (bridge.step_costs, decisions, events,
                bridge.pipeline_metrics("bodies"))

    results, _endpoints = run_in_transit(
        InTransitLayout(m=1, n=1),
        producer_main,
        lambda: [NullAnalysis()],
        transport=cfg,
        cost=CommCostModel(latency=us(point.latency_us), bandwidth=BANDWIDTH),
        control=control,
    )
    return results[0]


def _score(step_costs, warmup: int) -> float:
    """Steady-state ship time: the sum after the convergence window."""
    return sum(step_costs[warmup:])


def flow_sweep(points, steps: int = STEPS, warmup: int = WARMUP):
    """({point.key: {config: steady ship time}}, {key: decisions},
    events, {key: adaptive steady-state stats}).

    Configs are every static grid corner plus ``adaptive``; the same
    warmup exclusion applies to all of them.
    """
    table = {}
    decisions = {}
    events = []
    stats = {}
    for point in points:
        row = {}
        for window in WINDOWS:
            for chunk in CHUNKS:
                costs, _, _, _ = run_flow_point(point, window, chunk,
                                                adaptive=False, steps=steps)
                row[f"w{window}c{chunk}"] = _score(costs, warmup)
        costs, decs, evs, metrics = run_flow_point(
            point, WINDOWS[0] * 2, CHUNKS[0] * 2, adaptive=True, steps=steps
        )
        row["adaptive"] = _score(costs, warmup)
        steady = costs[warmup:]
        stats[point.key] = {
            "p50_s": percentile(steady, 50),
            "p99_s": percentile(steady, 99),
            "throughput_bps": len(steady) * N_ROWS * 8 / sum(steady),
            "retries": metrics["retries"],
        }
        table[point.key] = row
        decisions[point.key] = decs
        events.extend(evs)
    return table, decisions, events, stats


def static_names():
    return [f"w{w}c{c}" for w in WINDOWS for c in CHUNKS]


def check_flow(points, table, decisions):
    """Adaptive within TOLERANCE of best static at both sweep ends,
    the static envelope spreads, and the governor visibly steered."""
    failures = []
    for point in (points[0], points[-1]):
        row = table[point.key]
        statics = [row[s] for s in static_names()]
        best, worst = min(statics), max(statics)
        if row["adaptive"] > TOLERANCE * best:
            failures.append(
                f"{point.key}: adaptive {row['adaptive']:.4g}s exceeds "
                f"{TOLERANCE:.2f}x best static {best:.4g}s"
            )
        if worst < SPREAD * best:
            failures.append(
                f"{point.key}: static envelope too flat "
                f"({worst:.4g}s vs {best:.4g}s): the knobs don't matter "
                "at this point"
            )
        if not decisions[point.key]:
            failures.append(f"{point.key}: the flow governor never decided")
    clean_acts = [d["action"] for d in decisions[points[0].key]]
    if not any("chunk=8192" in a for a in clean_acts):
        failures.append(
            "fat-clean end: the chunk rung never climbed to the top"
        )
    lossy = decisions[points[-1].key]
    if not any("multiplicative decrease" in d["reason"] for d in lossy):
        failures.append(
            "congested end: the governor never shrank on the retry spike"
        )
    return failures


def format_table(table, points):
    columns = static_names() + ["adaptive"]
    lines = ["  " + f"{'link':>12}  " + "".join(f"{c:>12}" for c in columns)]
    for point in points:
        row = table[point.key]
        lines.append(
            f"  {point.key:>12}  "
            + "".join(f"{row[c]:>12.4g}" for c in columns)
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="sweep endpoints only (CI smoke mode)")
    ap.add_argument("--trace", metavar="PATH",
                    help="write flow decisions as a Chrome trace JSON")
    add_json_arg(ap, default="BENCH_flow.json")
    args = ap.parse_args(argv)

    points = QUICK_POINTS if args.quick else FULL_POINTS
    table, decisions, events, stats = flow_sweep(points)
    failures = check_flow(points, table, decisions)

    print("flow sweep (steady-state producer ship time, simulated s):")
    print(format_table(table, points))
    n_dec = sum(len(d) for d in decisions.values())
    print(f"\nflow decisions: {n_dec}")
    for point in points:
        trail = ", ".join(d["action"] for d in decisions[point.key])
        print(f"  {point.key}: {trail or '(none)'}")

    if args.trace:
        with open(args.trace, "w") as f:
            json.dump(chrome_trace([], extra_events=events), f, indent=1)
        print(f"trace written to {args.trace}")

    if args.json:
        write_bench_json(
            args.json, "flow",
            metrics={key: dict(stats[key]) for key in sorted(stats)},
            detail={"table": table, "quick": bool(args.quick),
                    "decisions": {k: len(v) for k, v in
                                  sorted(decisions.items())}},
        )
        print(f"metrics written to {args.json}")

    if failures:
        print("\nFAIL: the flow governor missed the tolerance:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nOK: adaptive within {TOLERANCE:.2f}x of the best static "
          "(window, chunk) at both ends of the sweep")
    return 0


# -- pytest entry points -----------------------------------------------------------


def test_flow_sweep_ends(benchmark):
    table, decisions, events, _stats = benchmark.pedantic(
        lambda: flow_sweep(QUICK_POINTS), rounds=1, iterations=1,
    )
    assert not check_flow(QUICK_POINTS, table, decisions)
    assert any(e["ph"] == "i" for e in events)
    clean, lossy = QUICK_POINTS[0].key, QUICK_POINTS[-1].key
    # The static envelope crosses: the deep/big corner wins the clean
    # fat link, the shallow/small corner wins the congested one.
    assert (
        table[clean][f"w{max(WINDOWS)}c{max(CHUNKS)}"]
        < table[clean][f"w{min(WINDOWS)}c{min(CHUNKS)}"]
    )
    assert (
        table[lossy][f"w{min(WINDOWS)}c{min(CHUNKS)}"]
        < table[lossy][f"w{max(WINDOWS)}c{max(CHUNKS)}"]
    )
    benchmark.extra_info["decisions"] = sum(
        len(d) for d in decisions.values()
    )


if __name__ == "__main__":
    sys.exit(main())
