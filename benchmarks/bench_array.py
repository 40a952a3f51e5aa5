"""Array-plane benchmark: adaptive repartitioning vs static partitions.

A bandwidth-bound Jacobi heat stencil runs over a
:class:`~repro.array.DistributedArray` under a sweep of injected load
skews: a hotspot region whose rows charge extra simulated compute
(numerics untouched).  Three layouts race on the identical seeded
workload:

- **block** — static contiguous partition: minimal halo surface, but
  the hotspot lands on one rank;
- **cyclic** — static round-robin partition: spreads the hotspot, but
  every block boundary crosses ranks, maximizing halo traffic (all of
  it charged through the transport cost model);
- **adaptive** — starts as block; the
  :class:`~repro.control.repartition.RepartitionGovernor` watches
  allreduced per-rank busy time and halo bytes and re-cuts the
  partition with the ``chain`` partitioner (contiguous *and*
  cost-balanced), shipping shards through the reliable channel.

The benchmark fails (exit 1) unless adaptive stays within
``UNIFORM_TOLERANCE`` of the best static layout when the load is
uniform (the governor must not thrash) and strictly beats the best
static layout under every injected skew.  ``--json`` (default
``BENCH_array.json``) records the sweep for the perf trajectory;
``--trace PATH`` writes a Chrome trace of the adaptive skewed run
(halo/handoff transport timelines plus governor instant events).

Run standalone: ``python benchmarks/bench_array.py [--quick]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from repro.array import StencilConfig, StencilWorkload
from repro.control.plan import ControlConfig, ControlPlane
from repro.hamr.runtime import current_clock
from repro.mpi import run_spmd
from repro.mpi.comm import CommCostModel
from repro.trace.harness import fresh_substrate
from repro.units import gbs, us

try:
    from benchmarks.emit import add_json_arg, write_bench_json
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from emit import add_json_arg, write_bench_json

#: Adaptive may cost at most this fraction over the best static layout
#: when the load is uniform (no-thrash bound).
UNIFORM_TOLERANCE = 0.10

BANDWIDTH = gbs(2.0)
LATENCY = us(20.0)


@dataclass(frozen=True)
class Shape:
    """One benchmark scale (identical workload across all layouts)."""

    ranks: int
    length: int
    steps: int
    block_rows: int
    interval: int           # coordination rounds every this many steps
    skews: tuple[float, ...]  # hotspot row-cost multiples (0 = uniform)
    #: The hotspot covers 11 of 128 ownership blocks at the full shape
    #: — indivisible by the rank count, so round-robin cannot balance
    #: it either; only a cost-weighted re-cut can.
    hotspot: tuple[float, float] = (0.0, 0.0859375)
    compute_rate: float = 2.0e6


FULL = Shape(ranks=8, length=16384, steps=32, block_rows=128,
             interval=4, skews=(0.0, 3.0, 6.0))
QUICK = Shape(ranks=4, length=2048, steps=16, block_rows=128,
              interval=4, skews=(0.0, 6.0))


def stencil_config(shape: Shape, skew: float) -> StencilConfig:
    return StencilConfig(
        length=shape.length,
        steps=shape.steps,
        block_rows=shape.block_rows,
        compute_rate=shape.compute_rate,
        hotspot=shape.hotspot,
        hotspot_cost=skew,
        hotspot_from=1,
    )


def _control(shape: Shape) -> ControlConfig:
    return ControlConfig.from_xml_attrs(
        {"execution": "off", "codec": "off", "placement": "off",
         "pool": "off", "repartition": "on",
         "interval": str(shape.interval)},
    )


def run_mode(shape: Shape, skew: float, mode: str, trace: str | None = None):
    """One stencil run under ``mode`` ('block'/'cyclic'/'adaptive')."""
    fresh_substrate(f"array-{mode}-{skew:g}")
    adaptive = mode == "adaptive"
    config = stencil_config(shape, skew)
    if not adaptive:
        config = replace(config, partitioner=mode)

    def main(comm):
        plane = (
            ControlPlane(_control(shape), comm=comm) if adaptive else None
        )
        workload = StencilWorkload(
            comm, config, plane=plane,
            adaptive=adaptive, interval=shape.interval,
        )
        workload.run()
        # Per-rank makespan *before* the collective summary/close
        # aligns the clocks: compute charges + halo/handoff wire time
        # + coordination rounds, all simulated seconds.
        elapsed = current_clock().now
        events = []
        if trace and comm.rank == 0:
            from repro.hw.trace import chrome_trace

            timelines = [
                s.timeline
                for _k, s in sorted(workload.exchanger.flows.senders.items())
            ]
            extra = (
                plane.chrome_instant_events() if plane is not None else []
            )
            events = chrome_trace(timelines, extra_events=extra)
        summary = workload.summary()
        workload.close()
        return {
            "elapsed": elapsed,
            "summary": summary,
            "decisions": (
                len(plane.decisions) if plane is not None else 0
            ),
            "trace": events,
        }

    out = run_spmd(
        shape.ranks, main,
        cost=CommCostModel(latency=LATENCY, bandwidth=BANDWIDTH),
    )
    makespan = max(r["elapsed"] for r in out)
    s0 = out[0]["summary"]
    if trace:
        events = [e for r in out for e in r["trace"]]
        with open(trace, "w") as f:
            json.dump(events, f)
    return {
        "mode": mode,
        "skew": skew,
        "makespan_s": makespan,
        "checksum": s0["checksum"],
        "halo_bytes": sum(r["summary"]["halo_bytes"] for r in out),
        "handoff_bytes": sum(r["summary"]["handoff_bytes"] for r in out),
        "repartitions": s0["repartitions"],
        "decisions": max(r["decisions"] for r in out),
    }


def run_sweep(shape: Shape, trace: str | None = None) -> list[dict]:
    rows = []
    for skew in shape.skews:
        for mode in ("block", "cyclic", "adaptive"):
            want_trace = trace if (mode == "adaptive" and skew) else None
            rows.append(run_mode(shape, skew, mode, trace=want_trace))
    return rows


def check_array(rows: list[dict]) -> list[str]:
    """Adaptive within tolerance on uniform load, strictly better
    than the best static layout under every injected skew."""
    failures = []
    by_skew: dict[float, dict[str, dict]] = {}
    for r in rows:
        by_skew.setdefault(r["skew"], {})[r["mode"]] = r
    for skew in sorted(by_skew):
        modes = by_skew[skew]
        static = min(
            modes["block"]["makespan_s"], modes["cyclic"]["makespan_s"]
        )
        adaptive = modes["adaptive"]["makespan_s"]
        checksums = {m: r["checksum"] for m, r in sorted(modes.items())}
        if max(checksums.values()) - min(checksums.values()) > 1e-9:
            failures.append(
                f"skew {skew:g}: layouts disagree on physics: {checksums}"
            )
        if skew == 0.0:
            if adaptive > (1.0 + UNIFORM_TOLERANCE) * static:
                failures.append(
                    f"uniform load: adaptive {adaptive:.4g}s exceeds "
                    f"{UNIFORM_TOLERANCE:.0%} over best static "
                    f"{static:.4g}s"
                )
            if modes["adaptive"]["repartitions"]:
                failures.append(
                    "uniform load: the governor repartitioned anyway"
                )
        else:
            if adaptive >= static:
                failures.append(
                    f"skew {skew:g}: adaptive {adaptive:.4g}s does not "
                    f"beat best static {static:.4g}s"
                )
            if not modes["adaptive"]["repartitions"]:
                failures.append(
                    f"skew {skew:g}: the governor never repartitioned"
                )
    return failures


def format_table(rows: list[dict]) -> str:
    columns = ("makespan_s", "halo_bytes", "handoff_bytes", "repartitions")
    lines = ["  " + f"{'skew':>6} {'mode':>10}  "
             + "".join(f"{c:>14}" for c in columns)]
    for r in rows:
        lines.append(
            f"  {r['skew']:>6g} {r['mode']:>10}  "
            + "".join(f"{r[c]:>14.6g}" for c in columns)
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small shape (CI smoke mode)")
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="write a Chrome trace of the adaptive skewed run")
    add_json_arg(ap, default="BENCH_array.json")
    args = ap.parse_args(argv)

    shape = QUICK if args.quick else FULL
    print(f"array benchmark: {shape.ranks} ranks, {shape.length} rows, "
          f"{shape.steps} steps, skews {shape.skews}")
    rows = run_sweep(shape, trace=args.trace)
    failures = check_array(rows)

    print(format_table(rows))
    if args.trace:
        print(f"chrome trace written to {args.trace}")

    if args.json:
        write_bench_json(
            args.json, "array",
            metrics={
                "ranks": shape.ranks,
                "length": shape.length,
                "steps": shape.steps,
                "sweep": rows,
            },
            detail={"quick": bool(args.quick),
                    "uniform_tolerance": UNIFORM_TOLERANCE},
        )
        print(f"metrics written to {args.json}")

    if failures:
        print("\nFAIL: adaptive repartitioning missed the tolerance:")
        for line in failures:
            print(f"  - {line}")
        return 1
    best = {}
    for r in rows:
        best.setdefault(r["skew"], {})[r["mode"]] = r["makespan_s"]
    gains = ", ".join(
        f"{skew:g}x: {min(m['block'], m['cyclic']) / m['adaptive']:.2f}x"
        for skew, m in sorted(best.items()) if skew
    )
    print(f"\nOK: adaptive beat the best static layout under every "
          f"injected skew (gain {gains}) and stayed within "
          f"{UNIFORM_TOLERANCE:.0%} on uniform load")
    return 0


# -- pytest entry points -----------------------------------------------------------


def test_array_bench_quick(benchmark):
    rows = benchmark.pedantic(
        lambda: run_sweep(QUICK), rounds=1, iterations=1
    )
    assert not check_array(rows)
    by = {}
    for r in rows:
        by.setdefault(r["skew"], {})[r["mode"]] = r["makespan_s"]
    skew = max(by)
    benchmark.extra_info["skew_gain"] = (
        min(by[skew]["block"], by[skew]["cyclic"]) / by[skew]["adaptive"]
    )


if __name__ == "__main__":
    sys.exit(main())
