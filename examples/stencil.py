#!/usr/bin/env python3
"""The array plane end to end: a heat stencil that rebalances itself.

Four SPMD ranks advance a 1-D Jacobi heat stencil over a
:class:`~repro.array.DistributedArray` — one global index space,
per-rank shards in pooled device buffers, ghost rows shipped through
the reliable transport channel every step.  A cost hotspot on the
first rows skews the charged load; the
:class:`~repro.control.repartition.RepartitionGovernor` sees the skew
in the allreduced busy vector and re-cuts the partition with its
weighted ``chain`` cut, shipping shards over the same channel.  The
identical physics then runs a second time with the governor disabled
to show what the rebalance bought.

The same workload then runs as an in-transit producer: four simulation
ranks stream their owned rows to two analysis endpoints through
``run_in_transit``, where a thermometer analysis reassembles the
global temperature field each step.

Run:  python examples/stencil.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.array import StencilConfig, StencilWorkload, stencil_producer
from repro.hamr.runtime import current_clock
from repro.hw.trace import write_chrome_trace
from repro.mpi import run_spmd
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.trace.harness import fresh_substrate
from repro.units import gbs, us

RANKS = 4
CONFIG = StencilConfig(
    length=2048, steps=16, block_rows=128, compute_rate=2.0e6,
    hotspot=(0.0, 0.125), hotspot_cost=6.0, hotspot_from=1,
)
COST = CommCostModel(latency=us(20.0), bandwidth=gbs(2.0))


def simulate(adaptive: bool):
    """One SPMD stencil run; returns (makespan, rank-0 summary, timelines)."""
    fresh_substrate(f"stencil-{'adaptive' if adaptive else 'static'}")

    def main(comm):
        workload = StencilWorkload(comm, CONFIG, adaptive=adaptive)
        workload.run()
        elapsed = current_clock().now
        timelines = [
            s.timeline
            for _k, s in sorted(workload.exchanger.flows.senders.items())
        ]
        summary = workload.summary()
        workload.close()
        return elapsed, summary, timelines

    out = run_spmd(RANKS, main, cost=COST)
    makespan = max(r[0] for r in out)
    timelines = [t for r in out for t in r[2]]
    return makespan, out[0][1], timelines


class Thermometer(AnalysisAdaptor):
    """Reassembles the global field and records its mean each step."""

    def __init__(self):
        super().__init__("thermometer")
        self.set_device_id(-1)
        self.means: list[float] = []
        self.rows: list[int] = []

    def acquire(self, data, deep):
        t = data.get_mesh("stencil")
        return {n: t.column(n).as_numpy_host().copy() for n in t.column_names}

    def process(self, payload, comm, device_id):
        u = payload["u"]
        self.rows.append(len(u))
        self.means.append(float(np.mean(u)))


def main() -> None:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    outdir.mkdir(parents=True, exist_ok=True)

    # -- standalone: adaptive vs frozen-layout run of the same physics
    static_time, static_summary, _ = simulate(adaptive=False)
    adaptive_time, summary, timelines = simulate(adaptive=True)
    assert abs(summary["checksum"] - static_summary["checksum"]) < 1e-12
    print(f"hotspot rows {CONFIG.hotspot_rows} charge "
          f"{CONFIG.hotspot_cost:g}x extra")
    print(f"static block layout: {static_time * 1e3:.2f} ms charged")
    print(f"adaptive layout:     {adaptive_time * 1e3:.2f} ms charged "
          f"({summary['repartitions']} repartition, "
          f"{summary['blocks_moved']} blocks moved, "
          f"{summary['handoff_bytes']} handoff bytes)")
    print(f"identical physics, {static_time / adaptive_time:.2f}x faster: "
          f"checksum {summary['checksum']:.6f}")
    trace_path = outdir / "stencil_trace.json"
    write_chrome_trace(trace_path, timelines)
    print(f"wrote {trace_path}")

    # -- in transit: the same producer streaming rows to endpoints
    fresh_substrate("stencil-intransit")
    layout = InTransitLayout(m=RANKS, n=2)
    results, endpoints = run_in_transit(
        layout,
        stencil_producer(CONFIG, adaptive=True),
        lambda: [Thermometer()],
        mesh_name="stencil",
    )
    analyses = [ep.analyses[0] for ep in endpoints]
    # Each endpoint sees its own producers' rows; together they cover
    # the whole field every step — across the mid-run repartition too.
    for step in range(CONFIG.steps):
        assert sum(a.rows[step] for a in analyses) == CONFIG.length
    assert all(r["repartitions"] == 1 for r in results)
    final_mean = sum(
        a.means[-1] * a.rows[-1] for a in analyses
    ) / CONFIG.length
    print(f"in transit: {len(endpoints)} endpoints reassembled "
          f"{CONFIG.steps} steps of {CONFIG.length} rows "
          f"(final mean {final_mean:.2e})")


if __name__ == "__main__":
    main()
