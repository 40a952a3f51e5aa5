"""The golden-trace regression gate.

Each fixture under ``tests/golden/`` is the canonical JSONL trace of
one small zoo scenario, recorded at a pinned seed: a single-governor
scenario (``codec``, ``flow``, ``repartition``) or the ``particle``
workload, which no other fixture pins.
The gate re-records every scenario from a fresh substrate and demands
the bytes match the committed fixture exactly — any drift in decision
logs, retry schedules, payload bytes, or simulated timestamps fails
CI with a record-level diff.

A legitimate contract change (new trace fields, a reworked governor)
refreshes the fixtures deliberately::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

then commit the regenerated ``.jsonl`` files after reviewing the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.trace import Trace, replay_trace
from repro.workloads import record_zoo
from tests.support import GOLDEN_SCENARIOS, diff_traces

GOLDEN_DIR = Path(__file__).resolve().parent

#: Pinned recording parameters: changing either is a fixture refresh.
GOLDEN_SEED = 7


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.jsonl"


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
class TestGoldenTraces:
    def test_re_recording_matches_golden(self, name, update_golden):
        trace = record_zoo(name, seed=GOLDEN_SEED, quick=True)[0]
        text = trace.to_jsonl()
        path = golden_path(name)
        if update_golden:
            path.write_text(text)
            return
        if not path.exists():
            pytest.fail(
                f"missing golden fixture {path}; record it with "
                f"`pytest tests/golden --update-golden`"
            )
        golden = path.read_text()
        if text != golden:
            diff = diff_traces(Trace.from_jsonl(golden), trace)
            pytest.fail(
                f"golden trace {name!r} drifted from {path.name}:\n"
                + "\n".join(diff)
                + "\nIf this change is intentional, refresh with "
                "`pytest tests/golden --update-golden` and commit the "
                "reviewed diff."
            )

    def test_golden_replays_bit_identically(self, name):
        """The committed fixture is itself a replay fixpoint."""
        golden = golden_path(name).read_text()
        assert replay_trace(golden).trace.to_jsonl() == golden

    def test_golden_parses_and_carries_decisions(self, name):
        trace = Trace.from_jsonl(golden_path(name).read_text())
        assert trace.name == name
        assert trace.header["meta"]["seed"] == GOLDEN_SEED
        kinds = {event["kind"] for event in trace.events}
        assert "publish" in kinds
        assert "decision" in kinds
