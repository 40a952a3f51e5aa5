#!/usr/bin/env python3
"""Deeper profiling of a placement run (the paper's Section 5 plan).

Runs one asynchronous same-device case through the real stack, then
analyzes the recorded timelines: per-resource utilization with a
category breakdown, idle-gap analysis (where would an in situ placement
fit?), a concurrency profile, and a Chrome-trace export loadable in
Perfetto / chrome://tracing.

Run:  python examples/profiling_deep_dive.py [trace.json]
"""

from __future__ import annotations

import sys

from repro.harness.calibrate import SmallWorkload, scaled_node_spec
from repro.harness.runner import execute_small
from repro.harness.spec import InSituPlacement, RunSpec
from repro.hw.node import get_node
from repro.hw.trace import (
    concurrency_profile,
    idle_gaps,
    utilization,
    write_chrome_trace,
)
from repro.sensei.execution import ExecutionMethod
from repro.units import fmt_time


def main() -> None:
    spec = RunSpec(InSituPlacement.SAME_DEVICE,
                   ExecutionMethod.ASYNCHRONOUS, nodes=1)
    w = SmallWorkload(n_bodies=1200, steps=4, n_coordinate_systems=3,
                      n_variables=3, bins=(32, 32))
    result = execute_small(spec, w, node_spec=scaled_node_spec())
    print(f"ran {spec.label}: total {fmt_time(result.total_time)}, "
          f"solver/iter {fmt_time(result.solver_per_iter)}")

    node = get_node()
    timelines = node.timelines()
    end = result.total_time

    print("\nper-resource utilization over the run:")
    for tl in timelines:
        u = utilization(tl, 0.0, end)
        cats = ", ".join(f"{k}={fmt_time(v)}" for k, v in sorted(u.by_category.items()))
        print(f"  {tl.name:<16} {100 * u.fraction:6.2f}%  ({cats or 'idle'})")

    print("\nlargest idle gaps per device (opportunities for placement):")
    for tl in (d.timeline for d in node.devices):
        gaps = sorted(idle_gaps(tl, 0.0, end), key=lambda g: g[1] - g[0],
                      reverse=True)[:3]
        desc = ", ".join(f"{fmt_time(b - a)} @ {fmt_time(a)}" for a, b in gaps)
        print(f"  {tl.name:<12} {desc or 'none'}")

    profile = concurrency_profile(timelines)
    if profile:
        peak = max(n for _, n in profile)
        print(f"\npeak resource concurrency: {peak} of {len(timelines)}")

    out = sys.argv[1] if len(sys.argv) > 1 else "placement_trace.json"
    write_chrome_trace(out, timelines)
    print(f"wrote {out} — load it in Perfetto or chrome://tracing")


if __name__ == "__main__":
    main()
