"""One workload in one fresh subprocess, driven by ``run.py`` over pipes.

Start-up *is* the set-up the benchmark measures: import ``repro``,
build the workload's configs from the seed, run one warm-up repetition,
then answer ``ready``.  After that each line on stdin is one command
and each reply is one JSON line on stdout:

- ``rep``    — one timed, untraced, checked repetition;
- ``traced`` — one repetition with spans, counters and the sampler on;
- ``probes`` — the isolated layer probes (``--workload probes`` only);
- ``quit``   — report ``ru_maxrss`` and exit.

The parent drives one repetition at a time from its main thread; the
only threads in here are the simulator's own rank threads and, on the
traced repetition, the sampler.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time


def _timed_rep(rep, tracer, traced: bool) -> dict:
    gc.collect()
    t0 = time.perf_counter()
    result = rep(tracer, traced)
    result["wall_s"] = time.perf_counter() - t0
    return result


def _traced_rep(rep, extras, rep_id: int) -> dict:
    """The traced repetition: spans + counters + the 5 ms sampler."""
    from tracing import Sampler, Tracer

    tracer = Tracer(True, rep=rep_id)
    sampler = Sampler(tracer)
    with sampler:
        result = _timed_rep(rep, tracer, True)
    layers = result.pop("layers")
    layers.update(sampler.shares())
    layers["mpi.wait_share"] = layers["share.mpi.wait"]
    publishes = tracer.durations("bridge.execute")
    if len(publishes) >= 2:
        layers["service.publish_us_p50"] = 1e6 * statistics.median(publishes)
        layers["service.publish_us_p95"] = (
            1e6 * statistics.quantiles(publishes, n=20)[-1]
        )
    launches = (
        tracer.durations("run_service") + tracer.durations("run_in_transit")
    )
    steps = layers.pop("service.endpoint_steps", 0)
    if launches and steps:
        layers["service.endpoint_steps_per_s"] = steps / sum(launches)
    detail = {
        "sampler_samples": sampler.samples,
        "bench_share": sampler.bench_share(),
        "publish_samples": len(publishes),
        "spans": tracer.self_times(),
    }
    if sampler.poll_values:
        # The in-flight peak follows the wall-clock arrival order of
        # every tenant's chunks, so it is reported with its spread.
        layers["service.inflight_peak_bytes"] = max(sampler.poll_values)
        detail["inflight_bytes_quartiles"] = statistics.quantiles(
            sampler.poll_values, n=4
        ) if len(sampler.poll_values) > 1 else sampler.poll_values
    if extras is not None:
        layers.update(extras())
    result.update(
        layers=layers, detail=detail, chrome=tracer.chrome_events(),
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    # The protocol owns the real stdout; anything the library prints
    # goes to stderr instead of corrupting a reply.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def reply(event: str, **body) -> None:
        channel.write(json.dumps({"event": event, **body}) + "\n")
        channel.flush()

    if args.workload == "probes":
        import probes

        reply("ready")
        rep = extras = None
    else:
        from tracing import Tracer
        from workloads import BUILDERS

        rep, extras = BUILDERS[args.workload](args.seed, args.quick)
        warmup = _timed_rep(rep, Tracer(False), False)
        reply("ready", warmup=warmup)

    reps = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "rep":
            reps += 1
            reply("rep", **_timed_rep(rep, Tracer(False, reps), False))
        elif command == "traced":
            reps += 1
            reply("traced", **_traced_rep(rep, extras, reps))
        elif command == "probes":
            reply("probes", layers=probes.run_all(args.seed, args.quick))
        elif command == "quit":
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply("bye", peak_rss_mib=peak_kib / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
