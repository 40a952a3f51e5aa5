"""The repository's benchmark: five workloads, two clocks, layer probes.

One command runs the named workloads — each in fresh subprocesses,
one repetition at a time, repetitions interleaved round-robin — checks
every output, prints every metric by name with its unit and its clock,
and writes the results under ``benchmarks/core/results/``.  A second,
traced pass of the same workloads plus the isolated probes in
``probes.py`` gives the per-layer numbers; end-to-end numbers never
come from it.

    python3 benchmarks/core/run.py                  # all five, both passes
    python3 benchmarks/core/run.py --quick          # <= 20 s smoke shape
    python3 benchmarks/core/run.py --repeat 2       # run twice, compare
    python3 benchmarks/core/run.py --compare A.json B.json
    python3 benchmarks/core/run.py --workload bulk_lossy --seed 3 \\
        --seconds 15 --trace 0                      # the driver's form

With ``--workload`` and ``--trace`` the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics for ``--trace 0``, the per-layer ones for
``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from metrics import (
    END_TO_END,
    PATIENT_WORKLOADS,
    PER_LAYER,
    PER_LAYER_NAMES,
    PER_LAYER_UNITS,
    REPORTED,
    WORKLOADS,
    same_seed_bound,
)
from tracing import write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Fresh subprocesses per workload and run: ``setup_s`` and
#: ``peak_rss_mib`` are medians over them, not single samples.
SEGMENTS = 3
#: Untraced repetitions the traced pass times first, in the same
#: process, as the base of ``tracing_overhead_frac``.
TRACED_BASE_REPS = 5
READY_TIMEOUT_S = 120.0
REP_TIMEOUT_S = 90.0
PROBES_TIMEOUT_S = 150.0


class WorkerFailed(RuntimeError):
    """A workload subprocess died, hung, or answered nonsense."""


class Worker:
    """One workload subprocess and the line protocol to it."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload = workload
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
        ]
        if quick:
            command.append("--quick")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        try:
            self.ready = self._read(READY_TIMEOUT_S)
        except WorkerFailed:
            self.kill()
            raise
        #: Subprocess start -> end of the warm-up repetition.
        self.setup_s = time.perf_counter() - started

    def _read(self, timeout: float) -> dict:
        # A hung rank thread would block readline forever; the watchdog
        # kills the worker, which closes the pipe and ends the read.
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise WorkerFailed(
                f"{self.workload}: worker ended without a reply "
                f"(exit code {self.proc.wait()})"
            )
        return json.loads(line)

    def ask(self, command: str, timeout: float = REP_TIMEOUT_S) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerFailed(f"{self.workload}: worker is gone") from None
        return self._read(timeout)

    def close(self) -> float:
        """Stop the worker; returns its ``ru_maxrss`` in MiB."""
        try:
            return self.ask("quit", 30.0)["peak_rss_mib"]
        finally:
            self.kill()

    def kill(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def calibrate() -> float:
    """A fixed numpy matmul plus a pure-Python dict loop, in seconds.

    Written to ``detail.calib_s`` so a reader can tell machine drift
    from a code change; it rescales nothing.
    """
    started = time.perf_counter()
    # 64 x 64: small enough that the BLAS never hands it to its thread
    # pool, whose warm-up made the first 100 products of a fresh process
    # take 1.1 s instead of 0.13 s.
    a = np.full((64, 64), 1.0 / 64.0)
    for _ in range(20_000):
        a @ a
    table: dict[int, int] = {}
    for i in range(1_000_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


# -- the untraced pass ---------------------------------------------------------


def _new_samples() -> dict:
    return {
        "setup_s": [], "wall_s": [], "sim_makespan_s": [],
        "sim_wire_bytes": [], "peak_rss_mib": [],
        "attempted": 0, "failed": 0, "failures": [], "error": None,
    }


def _fold(name: str, samples: dict, reply: dict, timed: bool) -> None:
    """Fold one repetition's reply into a workload's samples."""
    samples["attempted"] += reply["attempted"]
    samples["failed"] += reply["failed"]
    samples["failures"].extend(reply["failures"])
    if name in PATIENT_WORKLOADS and samples["sim_makespan_s"]:
        # Patient workloads must repeat their simulated numbers bit for
        # bit; a repetition that does not is a failed check.
        samples["attempted"] += 1
        first = (samples["sim_makespan_s"][0], samples["sim_wire_bytes"][0])
        if (reply["sim_makespan_s"], reply["sim_wire_bytes"]) != first:
            samples["failed"] += 1
            samples["failures"].append(
                f"sim numbers changed between repetitions: {first} -> "
                f"({reply['sim_makespan_s']}, {reply['sim_wire_bytes']})"
            )
    samples["sim_makespan_s"].append(reply["sim_makespan_s"])
    samples["sim_wire_bytes"].append(reply["sim_wire_bytes"])
    if timed:
        samples["wall_s"].append(reply["wall_s"])


def measure(names, seed: int, seconds: float, quick: bool):
    """The untraced pass; returns ``(samples by workload, calib_s)``.

    Each segment starts one fresh subprocess per workload (timing its
    set-up), then interleaves single repetitions round-robin, so a
    noisy minute on the shared machine lands on every workload.
    """
    samples = {name: _new_samples() for name in names}
    calib = [calibrate()]
    segments = 1 if quick else SEGMENTS
    budget = seconds / segments
    for _segment in range(segments):
        workers: dict[str, Worker] = {}
        spent = {name: 0.0 for name in names}
        count = {name: 0 for name in names}
        try:
            for name in names:
                if samples[name]["error"]:
                    continue
                try:
                    workers[name] = Worker(name, seed, quick)
                except WorkerFailed as exc:
                    samples[name]["error"] = str(exc)
                    continue
                samples[name]["setup_s"].append(workers[name].setup_s)
                _fold(name, samples[name],
                      workers[name].ready["warmup"], timed=False)
            live = list(workers)
            while live:
                for name in list(live):
                    try:
                        reply = workers[name].ask("rep")
                    except WorkerFailed as exc:
                        samples[name]["error"] = str(exc)
                        live.remove(name)
                        continue
                    _fold(name, samples[name], reply, timed=True)
                    spent[name] += reply["wall_s"]
                    count[name] += 1
                    if count[name] >= 3 and (quick or spent[name] >= budget):
                        live.remove(name)
            for name, worker in workers.items():
                if not samples[name]["error"]:
                    samples[name]["peak_rss_mib"].append(worker.close())
        finally:
            for worker in workers.values():
                worker.kill()
        calib.append(calibrate())
    return samples, calib


def _quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    out = {
        "n": len(ordered), "min": ordered[0], "max": ordered[-1],
        "median": statistics.median(ordered),
    }
    if len(ordered) >= 2:
        out["q1"], _q2, out["q3"] = statistics.quantiles(ordered, n=4)
    return out


def _reduce(metric: str, values: list[float]):
    """One run's value of ``metric`` from its samples.

    ``wall_s`` is the *lower quartile* of the timed repetitions: noise
    on a shared machine only ever adds time, and over ten runs per
    workload the lower quartile moved 1.2-2.7x less than the median
    (which stays in ``detail``).  Everything else is a median.
    """
    if metric == "wall_s" and len(values) >= 2:
        return statistics.quantiles(values, n=4)[0]
    value = statistics.median(values)
    return int(value) if metric == "sim_wire_bytes" else value


def summarise(samples: dict) -> dict:
    """One workload's result entry from its untraced samples."""
    finished = not samples["error"] and samples["wall_s"]
    entry = {
        "attempted": max(1, samples["attempted"]),
        "failed": samples["failed"],
        "failures": samples["failures"][:8],
        "end_to_end": {},
        "detail": {},
    }
    if not finished:
        # A workload that cannot finish has no wall numbers and fails
        # every check it never got to make.
        entry["failed"] = entry["attempted"]
        entry["failures"].append(samples["error"] or "no repetition finished")
    for name, unit, _better, clock, _bound in REPORTED:
        if name == "ops_failed_frac":
            value, values = entry["failed"] / entry["attempted"], []
        else:
            values = samples[name] if finished else []
            value = _reduce(name, values) if values else None
        entry["end_to_end"][name] = {
            "value": value, "unit": unit, "clock": clock,
            "samples": values,
        }
        if values:
            entry["detail"][name] = _quartiles(values)
    return entry


# -- the traced pass -----------------------------------------------------------


def traced_pass(names, seed: int, quick: bool):
    """Per-layer numbers: one traced repetition per workload + probes.

    Returns ``(layers by workload, detail by workload, chrome events)``.
    """
    worker = Worker("probes", seed, quick)
    try:
        probes = worker.ask("probes", PROBES_TIMEOUT_S)["layers"]
        worker.close()
    finally:
        worker.kill()
    layers, detail, chrome = {}, {}, []
    for pid, name in enumerate(names):
        worker = Worker(name, seed, quick)
        try:
            base = [
                worker.ask("rep")["wall_s"]
                for _ in range(3 if quick else TRACED_BASE_REPS)
            ]
            traced = worker.ask("traced")
            worker.close()
        finally:
            worker.kill()
        found = dict(probes)
        found.update(traced["layers"])
        found["tracing_overhead_frac"] = (
            traced["wall_s"] / statistics.median(base) - 1.0
        )
        found["sim_wire_bytes"] = traced["sim_wire_bytes"]
        found["ops_failed_frac"] = traced["failed"] / max(1, traced["attempted"])
        # Every listed metric is reported by every workload; one whose
        # layer this workload never enters reads 0.
        layers[name] = {key: found.get(key, 0.0) for key in PER_LAYER_NAMES}
        detail[name] = dict(
            traced["detail"],
            traced_wall_s=traced["wall_s"],
            untraced_wall_s=statistics.median(base),
            tracing_overhead_frac=found["tracing_overhead_frac"],
            attempted=traced["attempted"],
            failed=traced["failed"],
            failures=traced["failures"],
        )
        for event in traced["chrome"]:
            event["pid"] = pid
            if event["ph"] == "M":
                event["args"]["name"] = name
            chrome.append(event)
    return layers, detail, chrome


# -- printing ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_end_to_end(name: str, entry: dict) -> None:
    print(f"\n{name}: {entry['failed']} of {entry['attempted']} checks failed")
    for metric, row in entry["end_to_end"].items():
        detail = entry["detail"].get(metric)
        extra = ""
        if detail and "q1" in detail and row["clock"] == "wall":
            extra = (
                f"  (n={detail['n']}, min {_fmt(detail['min'])}, "
                f"q1 {_fmt(detail['q1'])}, median {_fmt(detail['median'])}, "
                f"q3 {_fmt(detail['q3'])}, max {_fmt(detail['max'])})"
            )
        print(
            f"  {metric:<18} {_fmt(row['value']):>14} {row['unit']:<6}"
            f" [{row['clock']} clock]{extra}"
        )
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")


def print_per_layer(name: str, layers: dict, detail: dict) -> None:
    print(f"\n{name}: per-layer metrics (traced pass and probes)")
    for metric, value in layers.items():
        if metric.startswith("share."):
            continue
        print(f"  {metric:<36} {_fmt(value):>14} {PER_LAYER_UNITS[metric]}")
    shares = sorted(
        ((v, k) for k, v in layers.items() if k.startswith("share.")),
        reverse=True,
    )
    top_run = [(v, k) for v, k in shares if v and k.endswith(".run")][:3]
    top_wait = [(v, k) for v, k in shares if v and k.endswith(".wait")][:3]
    print("  share table (fraction of rank-thread samples; top three):")
    for value, key in top_run + top_wait:
        print(f"    {key:<34} {value:>10.4f} ratio")
    print(
        f"  detail.tracing_overhead_frac         "
        f"{detail['tracing_overhead_frac']:>14.4f} ratio "
        f"({detail['sampler_samples']} samples)"
    )


def contract_line(attempted: int, failed: int, metrics: dict) -> str:
    """The driver's last line: exactly four keys."""
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


# -- compare -------------------------------------------------------------------


def compare(reference: dict, new: dict) -> int:
    """Print reference vs new per workload x metric; count ``regressed``.

    ``unresolved`` = worse by more than the bound, but the spread of
    the runs is wider than the bound and their ranges overlap.
    """
    same_seed = reference.get("seed") == new.get("seed") and (
        reference.get("quick") == new.get("quick")
    )
    if not same_seed:
        print("note: seeds or shapes differ; simulated numbers are not "
              "expected to match and are reported as unresolved")
    print(
        f"{'workload':<15} {'metric':<16} {'reference':>14} {'new':>14} "
        f"{'new/ref':>9} {'bound':>7}  verdict"
    )
    regressed = 0
    for name in reference["workloads"]:
        if name not in new["workloads"]:
            continue
        for metric, _unit, better, clock, _b in REPORTED:
            ref = reference["workloads"][name]["end_to_end"][metric]
            cur = new["workloads"][name]["end_to_end"][metric]
            bound = same_seed_bound(metric, name)
            a, b = ref["value"], cur["value"]
            if a is None or b is None:
                verdict = "regressed" if b is None else "ok"
                ratio = "-"
            else:
                worse = (b - a) if better == "lower" else (a - b)
                ratio = f"{b / a:.4f}" if a else ("1.0000" if b == a else "inf")
                limit = bound * abs(a)
                if worse <= limit:
                    verdict = "ok"
                elif clock == "sim" and not same_seed:
                    verdict = "unresolved"
                else:
                    xs, ys = ref["samples"], cur["samples"]
                    wide = max(spread(xs), spread(ys)) > bound
                    overlap = bool(xs and ys) and (
                        min(ys) <= max(xs) and min(xs) <= max(ys)
                    )
                    verdict = "unresolved" if wide and overlap else "regressed"
            regressed += verdict == "regressed"
            print(
                f"{name:<15} {metric:<16} {_fmt(a):>14} {_fmt(b):>14} "
                f"{ratio:>9} {bound:>7.2g}  {verdict}"
            )
    print(f"\n{regressed} regressed")
    return regressed


# -- entry point ---------------------------------------------------------------


def run_suite(args, names, tag: str) -> tuple[dict, Path]:
    """Both passes over ``names``; prints, writes and returns the results."""
    results = {
        "schema": 1, "benchmark": "benchmarks/core", "seed": args.seed,
        "quick": bool(args.quick), "seconds": args.seconds,
        "workloads": {}, "detail": {},
    }
    if args.trace in (None, 0):
        samples, calib = measure(names, args.seed, args.seconds, args.quick)
        for name in names:
            results["workloads"][name] = summarise(samples[name])
            print_end_to_end(name, results["workloads"][name])
        results["detail"]["calib_s"] = {
            "samples": calib, "median": statistics.median(calib),
            "spread": spread(calib),
        }
        print(
            f"\ncalibration loop: median {statistics.median(calib):.4f} s, "
            f"spread {spread(calib):.3f} over {len(calib)} samples"
        )
    RESULTS.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else RESULTS / f"{tag}.json"
    if args.trace in (None, 1):
        layers, detail, chrome = traced_pass(names, args.seed, args.quick)
        for name in names:
            entry = results["workloads"].setdefault(name, {"detail": {}})
            entry["per_layer"] = layers[name]
            entry["detail"]["traced"] = detail[name]
            print_per_layer(name, layers[name], detail[name])
        spans = path.with_suffix(".spans.json")
        write_chrome_trace(spans, chrome)
        print(f"\nspans written to {spans} (load in Perfetto / chrome://tracing)")
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"results written to {path}")
    return results, path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=17,
                    help="the only source of randomness (default 17)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed seconds per workload (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: untraced pass only; 1: traced pass only "
                         "(default: both)")
    ap.add_argument("--quick", action="store_true",
                    help="<= 20 s smoke shape: 3 repetitions, same checks")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the whole benchmark N times and compare "
                         "each later run with the first")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files; exit 1 on a regression")
    ap.add_argument("--out", default=None, help="result file to write")
    ap.add_argument("--list-metrics", action="store_true")
    args = ap.parse_args(argv)

    if args.list_metrics:
        for name, unit, better, clock, bound in REPORTED:
            print(f"{name:<36} {unit:<6} {better:<7} {clock} clock, "
                  f"bound {bound:g}")
        for name, unit, better, kind, moves in PER_LAYER:
            print(f"{name:<36} {unit:<6} {better:<7} {kind:<7} {moves}")
        return 0
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}; the "
              "benchmark measures that source tree and cannot run without it",
              file=sys.stderr)
        return 2

    names = (args.workload,) if args.workload else WORKLOADS
    stem = args.workload or "core"
    stem += f"-seed{args.seed}" + ("-quick" if args.quick else "")
    if args.trace is not None:
        stem += f"-trace{args.trace}"
    try:
        first, _path = run_suite(args, names, stem)
        worst = 0
        for again in range(2, args.repeat + 1):
            print(f"\n== repeat {again} of {args.repeat} ==")
            later, _path = run_suite(args, names, f"{stem}-repeat{again}")
            print()
            worst += compare(first, later)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failed = sum(
        entry.get("failed", 0) for entry in first["workloads"].values()
    )
    if args.workload and args.trace is not None:
        entry = first["workloads"][args.workload]
        if args.trace == 1:
            traced = entry["detail"]["traced"]
            print(contract_line(
                max(1, traced["attempted"]), traced["failed"],
                {
                    key: {"value": value, "unit": PER_LAYER_UNITS[key]}
                    for key, value in entry["per_layer"].items()
                },
            ))
            return 0
        if entry["end_to_end"]["wall_s"]["value"] is None:
            print(f"run.py: {args.workload} did not finish: "
                  f"{entry['failures']}", file=sys.stderr)
            return 1
        print(contract_line(
            entry["attempted"], entry["failed"],
            {
                name: {"value": entry["end_to_end"][name]["value"], "unit": unit}
                for name, unit, *_rest in END_TO_END
            },
        ))
        return 0
    return 1 if failed or worst else 0


if __name__ == "__main__":
    sys.exit(main())
