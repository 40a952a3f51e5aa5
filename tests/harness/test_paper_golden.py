"""The paper's numbers, pinned exactly, and EXPERIMENTS.md read against them.

``paper_golden.json`` beside this file holds, as ``float.hex``, every
section ``paper.py`` computes: the five ``RunResult`` floats of the 8
paper-scale cases, each ablation's and the scaling study's series and
crossover, and (``machine``) the charged duration of ``hamr`` copies.
A calibration or cost-model change legitimately moves them: refresh
with ``pytest tests/harness/test_paper_golden.py --update-golden``, fix
EXPERIMENTS.md until ``test_experiments_md`` passes, and say why.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.harness.spec import table1_matrix
from repro.hw.contention import ContentionModel
from repro.hw.spec import DeviceSpec
from tests.harness import paper

GOLDEN = Path(__file__).with_name("paper_golden.json")
DOC = Path(__file__).parents[2] / "EXPERIMENTS.md"
SECTIONS = {"simulate": paper.table1_cases, "atomic": paper.atomic_sweep,
            "contention": paper.contention_sweep, "overhead": paper.overhead_sweep,
            "dedicated": paper.dedicated_sweep, "scaling": paper.scaling_sweep,
            "machine": paper.machine_copies}


def _flat(sections: dict) -> dict:
    return {(s, case, field): value for s, cases in sections.items()
            for case, fields in cases.items() for field, value in fields.items()}


def test_paper_numbers_match_golden(update_golden):
    recorded = {s: {case: {f: float(v).hex() for f, v in fields.items()}
                    for case, fields in sweep().items()} for s, sweep in SECTIONS.items()}
    if update_golden:
        GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
        pytest.skip("paper golden re-recorded")
    want, got = _flat(json.loads(GOLDEN.read_text())), _flat(recorded)
    for key in [*got, *(k for k in want if k not in got)]:
        w, g = want.get(key), got.get(key)
        assert w == g, (f"paper golden {' / '.join(key)}: golden "
                        f"{w and float.fromhex(w)!r} ({w}), now {g and float.fromhex(g)!r} ({g})")


def _rows(title: str) -> list[list[str]]:
    """The body rows of the table under the ``## title`` heading."""
    section = next(s for s in DOC.read_text().split("\n## ") if s.startswith(title))
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[c.strip().strip("`") for c in line.strip("|").split("|")] for line in lines[2:]]


def _check(title: str, expected: dict) -> None:
    """Every number of each row past its first cell equals the expected
    value rounded to the decimals the row prints."""
    rows = {row[0]: row[1:] for row in _rows(title)}
    assert rows.keys() == expected.keys(), title
    for key, want in expected.items():
        printed = re.findall(r"[0-9]+(?:\.[0-9]+)?", " ".join(rows[key]))
        assert len(printed) == len(want), (title, key, printed)
        for text, value in zip(printed, want):
            rounded = f"{value:.{len(text.partition('.')[2])}f}"
            assert rounded == text, f"EXPERIMENTS.md {title} / {key} prints {text}, not {rounded}"


def test_experiments_md():
    g = {s: {case: {f: float.fromhex(v) for f, v in fields.items()}
             for case, fields in cases.items()}
         for s, cases in json.loads(GOLDEN.read_text()).items()}
    assert _rows("Table 1") == [
        [str(s.nodes), "lock step" if s.method is paper.L else "asynchr.",
         str(s.ranks_per_node), str(s.total_ranks), s.placement.value]
        for s in table1_matrix()]

    fig2, fig3 = {}, {}
    for p in (*paper.SHARED, *paper.DEDICATED):
        lock, asyn = g["simulate"][f"{p} / lockstep"], g["simulate"][f"{p} / asynchronous"]
        fig2[p] = [lock["total_time"], asyn["total_time"],
                   100 * (1 - asyn["total_time"] / lock["total_time"])]
        fig3[p] = [lock["solver_per_iter"], asyn["solver_per_iter"],
                   100 * (asyn["solver_per_iter"] / lock["solver_per_iter"] - 1),
                   1e3 * lock["insitu_apparent_per_iter"],
                   1e6 * asyn["insitu_apparent_per_iter"], 1e3 * asyn["insitu_actual_per_iter"]]
    _check("Figure 2", fig2)
    _check("Figure 3", fig3)

    def ends(section, field=None, scale=1.0):
        """The first and last case of a sweep: its parameter, or ``field``."""
        first, *_, last = g[section].items()
        return [float(case.split()[0]) if field is None else scale * row[field]
                for case, row in (first, last)]

    atomic = g["atomic"]["crossover"]
    (break_even,) = set(g["contention"]["break-even"].values())
    _check("Ablations", {
        "test_ablations.py::test_atomic_penalty_crossover": [
            atomic["penalty"], DeviceSpec().atomic_update_penalty,
            g["atomic"]["penalty 24"]["gpu_atomic_s"] / atomic["gpu_sorted_s"]],
        "test_ablations.py::test_contention_break_even": [
            *(100 * s for s in g["contention"]["factor 1"].values()),
            max(ContentionModel().factors.values()), break_even],
        "test_ablations.py::test_findings_robust_to_overhead": [
            *ends("overhead"), *ends("overhead", "insitu_share", 100),
            *ends("overhead", "async_saving", 100)],
        "test_ablations.py::test_dedicated_gap_narrows_but_never_inverts": [
            *ends("dedicated"), *ends("dedicated", "ratio")],
        "test_scaling.py::TestAsyncAdvantageAcrossScale::test_saving_grows_with_nodes_up_to_512": [
            *ends("scaling"), *ends("scaling", "async_saving", 100),
            *ends("scaling", "efficiency")],
    })
