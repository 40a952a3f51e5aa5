"""Control-plane benchmark: adaptive governors vs the best static choice.

Three sweeps, each comparing the adaptive control plane against every
static configuration it chooses between:

- **Link-quality sweep** (codec governor): an in transit run shipping
  quantized particle data while the interconnect bandwidth sweeps from
  congested to fast.  Static ``none`` wins on a fast link (zlib's CPU
  charge outruns the bytes it saves), static ``zlib`` wins on a slow
  one; the adaptive run starts uncompressed, probes the payload, and
  must land within ``TOLERANCE`` of the best static at *both* ends of
  the sweep.

- **Step-cost sweep** (execution-mode governor): a purely in situ run
  whose analysis cost sweeps from trivial to exceeding the solver
  step.  Lockstep wins when the analysis is cheap (no deep-copy tax),
  asynchronous wins when it is heavy (the copy is all the simulation
  pays); adaptive starts lockstep and must track the winner at both
  ends.

- **Crowding sweep** (placement governor): N SPMD ranks all aimed at
  device 0 by Eq. 1 while background load pins devices 1 and 2.  Left
  static the ranks stay piled on one device at dilated cost; the
  governed run folds every rank's load vector in one coordination
  round, detects the crowding, and re-aims all ranks with one
  node-consistent placement that spreads them.  Governed must reach a
  non-overlapping assignment by round 1 and beat static on total in
  situ time.

Every governor decision is also emitted as a Chrome-trace instant
event (``--trace`` writes the JSON), so the switches are visible on
the same timeline as the work they re-routed.

Run standalone (``python benchmarks/bench_control.py [--quick]``,
exits nonzero if adaptivity misses the tolerance) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.control.plan import ControlConfig, ControlPlane
from repro.hamr.runtime import current_clock
from repro.hw.contention import ContentionModel, SharedResource
from repro.hw.node import VirtualNode, set_node
from repro.hw.spec import NodeSpec
from repro.hw.trace import chrome_trace
from repro.mpi.comm import CommCostModel, run_spmd
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.sensei.placement import DevicePlacement
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport import TransportConfig
from repro.units import gbs, us

#: Adaptivity must stay within this factor of the best static choice
#: at both ends of each sweep.
TOLERANCE = 1.05

CODEC_STEPS = 56
MODE_STEPS = 64
SOLVER_STEP_TIME = 1.0

FULL_BANDWIDTHS = (0.25, 0.5, 1.0, 4.0, 16.0, 50.0)   # GB/s
QUICK_BANDWIDTHS = (0.25, 50.0)
FULL_COSTS = (0.02, 0.1, 0.3, 0.6, 1.2)               # x solver step
QUICK_COSTS = (0.02, 1.2)


# -- link-quality sweep ------------------------------------------------------------


class NullAnalysis(AnalysisAdaptor):
    def __init__(self):
        super().__init__("null")
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return data.get_mesh("bodies").n_rows

    def process(self, payload, comm, device_id):
        pass


def run_codec_point(bandwidth_gbs: float, codec: str, steps: int, n_rows: int):
    """One in transit run; returns (total ship time, instant events)."""
    fresh_substrate(f"codec-{codec}-{bandwidth_gbs}")
    adaptive = codec == "adaptive"
    cfg = TransportConfig(compression=codec)
    control = ControlConfig() if adaptive else None

    def producer_main(sim_comm, bridge):
        rng = np.random.default_rng(bridge._world.rank)
        x = np.round(rng.standard_normal(n_rows), 2)  # compressible
        for step in range(steps):
            t = TableData("bodies")
            t.add_host_column("x", x)
            t.add_host_column("mass", np.full(n_rows, 0.01))
            da = TableDataAdaptor({"bodies": t})
            da.set_step(step, step * 1e-3)
            bridge.execute(da)
        plane = bridge.control_plane
        events = plane.chrome_instant_events() if plane is not None else []
        return bridge.total_apparent_time, events

    results, _endpoints = run_in_transit(
        InTransitLayout(m=2, n=1),
        producer_main,
        lambda: [NullAnalysis()],
        transport=cfg,
        cost=CommCostModel(latency=us(5.0), bandwidth=gbs(bandwidth_gbs)),
        control=control,
    )
    total = sum(r[0] for r in results)
    events = [e for r in results for e in r[1]]
    return total, events


def codec_sweep(bandwidths, steps=CODEC_STEPS, n_rows=8000):
    """{bandwidth: {codec: ship_time}} plus all decision events."""
    table = {}
    events = []
    for bw in bandwidths:
        row = {}
        for codec in ("none", "zlib", "adaptive"):
            total, evs = run_codec_point(bw, codec, steps, n_rows)
            row[codec] = total
            events.extend(evs)
        table[bw] = row
    return table, events


# -- step-cost sweep ---------------------------------------------------------------


class HeavyAnalysis(AnalysisAdaptor):
    """In situ work costing ``cost`` simulated seconds per step."""

    def __init__(self, cost: float):
        super().__init__("heavy")
        self.cost = cost
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return data.time_step

    def process(self, payload, comm, device_id):
        current_clock().advance(self.cost)


def run_mode_point(cost: float, mode: str, steps: int, n_rows: int = 1024):
    """One in situ run; returns (elapsed sim time, instant events)."""
    fresh_substrate(f"mode-{mode}-{cost}")
    bridge = Bridge()
    heavy = HeavyAnalysis(cost)
    if mode == "asynchronous":
        heavy.set_asynchronous()
    bridge.initialize(analyses=[heavy])
    plane = None
    if mode == "adaptive":
        plane = ControlPlane(ControlConfig())
        bridge.attach_control(plane)
    clk = current_clock()
    start = clk.now
    x = np.zeros(n_rows)
    for step in range(steps):
        clk.advance(SOLVER_STEP_TIME)
        t = TableData("bodies")
        t.add_host_column("x", x)
        da = TableDataAdaptor({"bodies": t})
        da.set_step(step, step * 1e-3)
        bridge.execute(da)
    bridge.finalize()
    events = plane.chrome_instant_events() if plane is not None else []
    return clk.now - start, events


def mode_sweep(costs, steps=MODE_STEPS):
    """{cost: {mode: elapsed}} plus all decision events."""
    table = {}
    events = []
    for cost in costs:
        row = {}
        for mode in ("lockstep", "asynchronous", "adaptive"):
            elapsed, evs = run_mode_point(cost, mode, steps)
            row[mode] = elapsed
            events.extend(evs)
        table[cost] = row
    return table, events


# -- crowding sweep ----------------------------------------------------------------

CROWD_STEPS = 40
CROWD_DEVICES = 4
CROWD_BG = {1: 1.25, 2: 1.25}  # external load pinned to devices 1 and 2
CROWD_BASE = 0.5               # busy fraction each rank adds to its device
CONVERGENCE_ROUNDS = 1
FULL_RANKS = (2, 3, 4)


class IdleAnalysis(AnalysisAdaptor):
    """Does no work of its own; its Eq. 1 placement is what's governed."""

    def __init__(self):
        super().__init__("idle")
        self.set_placement(DevicePlacement.auto(n_use=1))  # all ranks -> 0

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


def run_crowding_point(mode: str, ranks: int, steps: int = CROWD_STEPS):
    """One N-rank SPMD run; returns (total in situ time, first clean
    step, instant events).

    ``mode`` is ``static`` (no control) or ``governed`` (a plane per
    rank on the run's communicator, so placement rounds fold over all
    ``ranks``).  In situ cost per rank per step is ``CROWD_BASE`` dilated
    by the parties sharing its device (co-resolved ranks plus pinned
    background); the same node view feeds the governor, so the
    comparison is closed-form and deterministic.
    """
    fresh_substrate(f"crowd-{mode}-{ranks}")
    set_node(VirtualNode(NodeSpec().with_devices(CROWD_DEVICES)))
    cfg = ControlConfig.from_xml_attrs(
        {"execution": "off", "codec": "off", "pool": "off"}
    )

    def rank_main(comm):
        contention = ContentionModel()
        bridge = Bridge()
        analysis = IdleAnalysis()
        bridge.initialize(analyses=[analysis])
        plane = None
        if mode != "static":
            plane = ControlPlane(cfg, comm=comm)
            bridge.attach_control(plane)
            plane.wire_bridge(bridge)
        insitu_total = 0.0
        first_clean = None
        clk = current_clock()
        for step in range(steps):
            clk.advance(SOLVER_STEP_TIME)
            current = analysis.placement.resolve(
                comm.rank, n_available=CROWD_DEVICES
            )
            assignment = comm.allgather(current)
            counts = {d: assignment.count(d) for d in set(assignment)}
            if first_clean is None and len(set(assignment)) == len(assignment):
                first_clean = step
            parties = counts[current] - 1 + (1 if current in CROWD_BG else 0)
            cost = CROWD_BASE * contention.dilation(
                SharedResource.GPU_COMPUTE, parties
            )
            clk.advance(cost)
            insitu_total += cost
            if plane is not None:
                loads = dict(CROWD_BG)
                for d, c in counts.items():
                    dil = contention.dilation(
                        SharedResource.GPU_COMPUTE,
                        c - 1 + (1 if d in CROWD_BG else 0),
                    )
                    loads[d] = loads.get(d, 0.0) + c * CROWD_BASE * dil
                plane.observe_device_loads(step, loads, self_load=cost)
        events = plane.chrome_instant_events() if plane is not None else []
        return insitu_total, first_clean, events

    results = run_spmd(ranks, rank_main)
    total = sum(r[0] for r in results)
    first_clean = results[0][1]
    events = [e for r in results for e in r[2]]
    return total, first_clean, events


def crowding_sweep(rank_counts, steps=CROWD_STEPS):
    """({ranks: {mode: in situ time}}, {ranks: first clean step}, events)."""
    table = {}
    firsts = {}
    events = []
    for ranks in rank_counts:
        row = {}
        for mode in ("static", "governed"):
            total, first, evs = run_crowding_point(mode, ranks, steps)
            row[mode] = total
            if mode == "governed":
                firsts[ranks] = first
            events.extend(evs)
        table[ranks] = row
    return table, firsts, events


def check_crowding(table, firsts, events):
    """Governed beats static, converges by round 1, and logs crowding."""
    failures = []
    for ranks in sorted(table):
        row = table[ranks]
        if row["governed"] >= row["static"]:
            failures.append(
                f"ranks={ranks}: governed {row['governed']:.4g}s is "
                f"not better than static {row['static']:.4g}s"
            )
        first = firsts.get(ranks)
        if first is None or first > CONVERGENCE_ROUNDS:
            failures.append(
                f"ranks={ranks}: governed did not reach a "
                f"non-overlapping assignment by round {CONVERGENCE_ROUNDS} "
                f"(first clean step: {first})"
            )
    if not any("crowding" in e["name"] for e in events):
        failures.append("crowding sweep never logged a crowding event")
    return failures


# -- scoring -----------------------------------------------------------------------


def check_ends(table, statics, label):
    """Adaptive within TOLERANCE of the best static at both sweep ends.

    Returns a list of human-readable failures (empty = pass).
    """
    failures = []
    points = sorted(table)
    for point in (points[0], points[-1]):
        row = table[point]
        best = min(row[s] for s in statics)
        if row["adaptive"] > TOLERANCE * best:
            failures.append(
                f"{label}={point}: adaptive {row['adaptive']:.4g}s exceeds "
                f"{TOLERANCE:.2f}x best static {best:.4g}s"
            )
    return failures


def format_table(table, columns, label):
    lines = [f"  {label:>10}  " + "".join(f"{s:>14}" for s in columns)]
    for point in sorted(table):
        row = table[point]
        lines.append(
            f"  {point:>10g}  "
            + "".join(f"{row[s]:>14.4g}" for s in columns)
        )
    return "\n".join(lines)


def run_all(quick: bool, ranks: int = 2):
    bandwidths = QUICK_BANDWIDTHS if quick else FULL_BANDWIDTHS
    costs = QUICK_COSTS if quick else FULL_COSTS
    rank_counts = (ranks,) if quick else tuple(sorted({*FULL_RANKS, ranks}))
    codec_table, codec_events = codec_sweep(bandwidths)
    mode_table, mode_events = mode_sweep(costs)
    crowd_table, crowd_firsts, crowd_events = crowding_sweep(rank_counts)
    failures = check_ends(codec_table, ["none", "zlib"], "GB/s")
    failures += check_ends(
        mode_table, ["lockstep", "asynchronous"], "cost"
    )
    failures += check_crowding(crowd_table, crowd_firsts, crowd_events)
    if not codec_events:
        failures.append("codec sweep produced no governor decisions")
    if not mode_events:
        failures.append("mode sweep produced no governor decisions")
    events = codec_events + mode_events + crowd_events
    return codec_table, mode_table, crowd_table, crowd_firsts, events, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="sweep endpoints only (CI smoke mode)")
    ap.add_argument("--ranks", type=int, default=2, metavar="N",
                    help="SPMD rank count for the crowding sweep "
                         "(default 2)")
    ap.add_argument("--trace", metavar="PATH",
                    help="write decisions as a Chrome trace JSON")
    args = ap.parse_args(argv)

    codec_table, mode_table, crowd_table, crowd_firsts, events, failures = (
        run_all(args.quick, ranks=args.ranks)
    )

    print("link-quality sweep (total producer ship time, simulated s):")
    print(format_table(codec_table, ["none", "zlib", "adaptive"], "GB/s"))
    print("\nstep-cost sweep (total run time, simulated s):")
    print(format_table(
        mode_table, ["lockstep", "asynchronous", "adaptive"], "cost"
    ))
    print("\ncrowding sweep (total in situ time, simulated s):")
    print(format_table(crowd_table, ["static", "governed"], "ranks"))
    print("  governed convergence (first non-overlapping step): "
          + ", ".join(f"ranks={r}: {s}" for r, s in sorted(crowd_firsts.items())))
    print(f"\ngovernor decisions: {len(events)}")

    if args.trace:
        with open(args.trace, "w") as f:
            json.dump(chrome_trace([], extra_events=events), f, indent=1)
        print(f"trace written to {args.trace}")

    if failures:
        print("\nFAIL: adaptive missed the best-static tolerance:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nOK: adaptive within {TOLERANCE:.2f}x of best static at "
          "both ends of both sweeps, and governed placement beat "
          "static on the crowding sweep")
    return 0


# -- pytest entry points -----------------------------------------------------------


def test_codec_sweep_ends(benchmark):
    table, events = benchmark.pedantic(
        lambda: codec_sweep(QUICK_BANDWIDTHS, n_rows=4000),
        rounds=1, iterations=1,
    )
    assert not check_ends(table, ["none", "zlib"], "GB/s")
    assert any(e["ph"] == "i" for e in events)
    slow, fast = min(table), max(table)
    # The static envelope crosses: compression wins only on the slow link.
    assert table[slow]["zlib"] < table[slow]["none"]
    assert table[fast]["none"] < table[fast]["zlib"]
    benchmark.extra_info["decisions"] = len(events)


def test_mode_sweep_ends(benchmark):
    table, events = benchmark.pedantic(
        lambda: mode_sweep(QUICK_COSTS), rounds=1, iterations=1,
    )
    assert not check_ends(table, ["lockstep", "asynchronous"], "cost")
    assert any(e["ph"] == "i" for e in events)
    heavy = max(table)
    assert table[heavy]["asynchronous"] < table[heavy]["lockstep"]
    benchmark.extra_info["decisions"] = len(events)


def test_crowding_sweep_governed_beats_static(benchmark):
    table, firsts, events = benchmark.pedantic(
        lambda: crowding_sweep((2, 4)), rounds=1, iterations=1,
    )
    assert not check_crowding(table, firsts, events)
    for ranks in (2, 4):
        # One round spreads the ranks and wins outright.
        assert table[ranks]["governed"] < table[ranks]["static"]
        assert firsts[ranks] <= CONVERGENCE_ROUNDS
    assert any("crowding" in e["name"] for e in events)
    benchmark.extra_info["decisions"] = len(events)


if __name__ == "__main__":
    sys.exit(main())
