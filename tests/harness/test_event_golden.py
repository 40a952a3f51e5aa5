"""Golden event streams of the eight single-node Table 1 cases.

``test_table1_makespans_repeat_bit_for_bit`` only shows that a run
repeats itself: a change that moved every run's charges the same way
would still pass it.  This test pins *what* the substrate recorded.
For each ``table1_matrix(nodes=1)`` case of ``execute_small`` it hashes
every node timeline's events in the order they were recorded — the
timeline's name, each event's ``start.hex()``, ``end.hex()``, name and
category, but not its process-wide ``seq`` — and compares the hashes
and ``repr(total_time)`` with ``event_golden.json`` beside this file.

A change to the cost model or to what gets charged legitimately moves
them; refresh with ``pytest tests/harness/test_event_golden.py
--update-golden`` and say why in the change.  A refactor of how charges
are made must leave them alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.calibrate import SmallWorkload
from repro.harness.runner import execute_small
from repro.harness.spec import table1_matrix
from repro.hw.node import get_node

GOLDEN = Path(__file__).with_name("event_golden.json")


def _stream_digest() -> str:
    """One hash over every event of the current node, timeline by
    timeline in ``timelines()`` order, events in recorded order."""
    h = hashlib.sha256()
    for tl in get_node().timelines():
        h.update(f"timeline {tl.name}\n".encode())
        for ev in tl.events:
            h.update(
                f"{ev.start.hex()} {ev.end.hex()} {ev.name}"
                f" {ev.category.value}\n".encode()
            )
    return h.hexdigest()


def _record() -> dict:
    small = SmallWorkload(n_bodies=256, steps=2,
                          n_coordinate_systems=2, n_variables=5)
    out = {}
    for case in table1_matrix(nodes=1):
        result = execute_small(case, small)
        out[case.label] = {
            "events": _stream_digest(),
            "total_time": repr(result.total_time),
        }
    return out


def test_table1_event_streams_match_golden(update_golden):
    recorded = _record()
    if update_golden:
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        pytest.skip("event golden re-recorded")
    assert recorded == json.loads(GOLDEN.read_text())
