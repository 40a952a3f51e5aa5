"""Smoke test of the benchmark itself: the ``--quick`` shape, twice.

Not part of tier-1 (``testpaths`` is ``tests/``); run it with
``python -m pytest benchmarks/core/test_core_smoke.py -q`` (~25 s).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402 - needs the path line above
    END_TO_END,
    PATIENT_WORKLOADS,
    PER_LAYER,
    REPORTED,
    WORKLOADS,
)


def _quick(out: Path, *extra: str) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         *extra],
        check=True, timeout=300, cwd=ROOT,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("core")
    first = _quick(tmp / "a.json")
    second = _quick(tmp / "b.json", "--trace", "0")
    return tmp, first, second


def test_schema(runs):
    tmp, first, _second = runs
    assert first["schema"] == 1 and first["quick"] is True
    assert tuple(first["workloads"]) == tuple(sorted(WORKLOADS))
    wanted = {row[0] for row in REPORTED}
    for name, entry in first["workloads"].items():
        assert set(entry["end_to_end"]) == wanted, name
        for metric, row in entry["end_to_end"].items():
            assert row["value"] is not None, (name, metric)
            assert row["unit"] and row["clock"]
        assert set(entry["per_layer"]) == {row[0] for row in PER_LAYER}
        assert "tracing_overhead_frac" in entry["detail"]["traced"]
    assert first["detail"]["calib_s"]["samples"]
    spans = json.loads((tmp / "a.spans.json").read_text())["traceEvents"]
    assert {e["pid"] for e in spans} == set(range(len(WORKLOADS)))
    assert all(e["dur"] >= 0 for e in spans if e["ph"] == "X")


def test_every_check_passed(runs):
    for result in runs[1:]:
        for name, entry in result["workloads"].items():
            assert entry["end_to_end"]["ops_failed_frac"]["value"] == 0, (
                name, entry["failures"],
            )


def test_simulated_numbers_repeat_exactly(runs):
    _tmp, first, second = runs
    for name in PATIENT_WORKLOADS:
        for metric in ("sim_makespan_s", "sim_wire_bytes"):
            a = first["workloads"][name]["end_to_end"][metric]["value"]
            b = second["workloads"][name]["end_to_end"][metric]["value"]
            assert a == b, (name, metric, a, b)
    a, b = (
        r["workloads"]["insitu_matrix"]["end_to_end"]["sim_makespan_s"]["value"]
        for r in (first, second)
    )
    assert abs(a - b) <= 0.02 * a


def test_wait_share_separates_fanin_from_bulk(runs):
    layers = {n: e["per_layer"] for n, e in runs[1]["workloads"].items()}
    assert (
        layers["service_fanin"]["mpi.wait_share"]
        > layers["bulk_lossy"]["mpi.wait_share"]
    )


def test_compare_accepts_a_repeat(runs):
    tmp, _first, _second = runs
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(tmp / "a.json"), str(tmp / "b.json")],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    # Wall metrics of a 3-repetition quick run may read "unresolved";
    # no simulated number may read "regressed".
    for line in done.stdout.splitlines():
        if " sim_" in line or "ops_failed_frac" in line:
            assert line.rstrip().endswith("ok"), line


def test_benchmark_json_lists_the_same_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [
        row[0] for row in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
