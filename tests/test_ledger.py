"""One ledger for simulated time, owned by the node (DESIGN.md §5).

Every event scheduled anywhere in a run is reachable from
``get_node().timelines()``, what the CLI's trace shows is that ledger,
and no module under ``hamr``/``transport`` keeps run state of its own.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.array import StencilConfig
from repro.harness.calibrate import SmallWorkload
from repro.harness.runner import execute_small
from repro.harness.spec import table1_matrix
from repro.hw.clock import Timeline
from repro.hw.node import get_node
from repro.hw.trace import utilization
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy

from .array.test_stencil import run_workload
from .transport.test_faults import CaptureAnalysis, producer_main

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture
def made(monkeypatch):
    """Every event ``Timeline.schedule``/``record`` hands out."""
    events = []
    for method in ("schedule", "record"):
        original = getattr(Timeline, method)

        def counting(self, *args, _original=original, **kwargs):
            event = _original(self, *args, **kwargs)
            events.append(event)
            return event

        monkeypatch.setattr(Timeline, method, counting)
    return events


def reachable():
    return sorted(e for tl in get_node().timelines() for e in tl.events)


class TestEveryEventIsReachableFromTheNode:
    @pytest.mark.parametrize("spec", table1_matrix(nodes=1), ids=str)
    def test_table1_case(self, spec, made):
        execute_small(spec, SmallWorkload(
            n_bodies=120, steps=2, n_coordinate_systems=2, n_variables=2,
        ))
        kinds = {e.category.value for e in made}
        assert {"compute", "copy", "alloc", "free"} <= kinds
        assert sorted(made) == reachable()

    def test_lossy_in_transit_run(self, made):
        transport = TransportConfig(
            chunk_bytes=256, retry=RetryPolicy(max_retries=40),
        ).with_faults(drop=0.20, duplicate=0.05, seed=1234)
        run_in_transit(
            InTransitLayout(m=4, n=2), producer_main,
            lambda: [CaptureAnalysis()], transport=transport,
        )
        assert made and sorted(made) == reachable()

    def test_adaptive_stencil_run(self, made):
        config = StencilConfig(
            length=96, steps=8, block_rows=8,
            hotspot=(0.0, 0.25), hotspot_cost=8.0,
        )
        run_workload(3, config, adaptive=True)
        assert made and sorted(made) == reachable()


class TestTheTraceShowsTheLedger:
    def test_host_placement_trace_has_every_category_and_the_copy_lane(self, tmp_path):
        out = tmp_path / "t.json"
        assert main([
            "trace", "--placement", "host", "--method", "lockstep",
            "--bodies", "150", "--steps", "1", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        spans = [e for e in data if e.get("ph") == "X"]
        assert {"compute", "copy", "alloc", "free"} <= {e["cat"] for e in spans}
        threads = {e["tid"]: e["args"]["name"] for e in data if e.get("ph") == "M"}
        copy_lanes = {t for t, name in threads.items() if name.endswith(".copy")}
        assert copy_lanes & {e["tid"] for e in spans}

    def test_utilization_over_a_devices_lanes_is_what_was_scheduled(self, made):
        execute_small(table1_matrix(nodes=1)[1], SmallWorkload(
            n_bodies=120, steps=2, n_coordinate_systems=2, n_variables=2,
        ))
        for r in get_node().iter_resources():
            lanes = {lane.name for lane in r.lanes}
            scheduled = sum(e.duration for e in made if e.resource in lanes)
            busy = sum(utilization(lane).busy for lane in r.lanes)
            assert busy == pytest.approx(scheduled, rel=1e-12)
        assert get_node().device(0).copy_timeline.events


def module_level_assignments(path: Path):
    """``(name, value node)`` for each module-level assignment."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield ast.unparse(target), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield ast.unparse(node.target), node.value


class TestNoSecondHomeForRunState:
    @pytest.mark.parametrize("module", [
        "hamr/stream.py", "hamr/pool.py", "transport/metrics.py",
    ])
    def test_no_module_level_registry_or_lock(self, module):
        for name, value in module_level_assignments(SRC / module):
            if name == "__all__":
                continue
            mutable = isinstance(value, (
                ast.Dict, ast.List, ast.Set,
                ast.DictComp, ast.ListComp, ast.SetComp,
            ))
            called = ast.unparse(value.func) if isinstance(value, ast.Call) else ""
            factory = called.split(".")[-1] in {
                "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
                "Lock", "RLock", "count",
            }
            assert not (mutable or factory), (
                f"{module}: module-level {name} = {ast.unparse(value)} — run "
                "state belongs on the VirtualNode"
            )

    def test_hw_imports_nothing_from_the_layers_above(self):
        for path in sorted((SRC / "hw").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                for name in names:
                    assert not name.startswith(("repro.hamr", "repro.transport")), (
                        f"{path.name} imports {name}"
                    )
