"""The governor protocol: one call shape, one constructor, one round.

Everything here is parametrised over the governor classes found by
walking ``Governor.__subclasses__()`` (``Governor.kinds()``), so a new
governor is held to the same contract the day it is defined.  No
scenario has a communicator: a governor that acts on node-wide sums is
handed them (``feed`` does the driver's job by hand), and
``TestGovernorsArePure`` keeps it that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import StencilConfig, StencilWorkload
from repro.control import (
    ControlConfig,
    ControlPlane,
    Governor,
    coordination_round,
)
from repro.control.governors import Decision
from repro.errors import MPIError
from repro.mpi import run_spmd
from repro.service import PipelineSpec, ServiceConfig, run_service
from repro.trace.format import canonical_decision
from repro.trace.recorder import RankSink
from repro.units import MiB, gbs

from tests.service.test_runtime import Recorder, _adaptor, _table

KINDS = Governor.kinds()


def _codec(gov):
    payload = int(4 * MiB)
    for step in range(4):
        gov.observe(step, payload, payload, payload / gbs(0.05),
                    sample=b"\x00" * 8192)


#: name -> (constructor kwargs given the actuator, feed signals that
#: make the next ``decide`` emit at least one decision).
SCENARIOS = {
    "codec": (lambda act: dict(actuator=act), _codec),
    "flow": (
        lambda act: dict(
            window_actuator=act, chunk_actuator=act, credits=4,
            chunk_bytes=4096,
        ),
        lambda gov: gov.observe(0, 1e-4, 5, 10, 4),
    ),
    "quota": (
        lambda act: dict(weights={"a": 1.0}, budget=8, actuator=act),
        lambda gov: gov.observe(0, {"a": 9}, {"a": True}, {"a": (0,)}),
    ),
    "shard": (
        lambda act: dict(endpoints=2, actuator=act),
        lambda gov: gov.observe(
            0, {"a": 100, "c": 1000}, {"a": (0,), "c": (0,)}
        ),
    ),
    "repartition": (
        lambda act: dict(actuator=act),
        lambda gov: gov.observe(
            4, (0, 0, 1, 1), [9.0, 1.0, 1.0, 1.0], [10.0, 2.0], [0.0, 0.0]
        ),
    ),
}


def build(cls, calls, **extra):
    kwargs, feed = SCENARIOS[cls.name]
    return cls(**kwargs(lambda *args: calls.append(args)), **extra), feed


class TestConformance:
    def test_names_are_unique(self):
        names = [cls.name for cls in KINDS]
        assert len(names) == len(set(names)) == 5

    @pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.name)
    def test_switch_and_knobs_are_config_fields(self, cls):
        switch = cls.switch or cls.name
        assert isinstance(getattr(ControlConfig(), switch), bool)

    @pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.name)
    def test_fresh_instance_has_no_opinion(self, cls):
        gov, _feed = build(cls, [])
        assert gov.decide(0) == []

    @pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.name)
    def test_live_instance_actuates_what_it_logs(self, cls):
        calls = []
        gov, feed = build(cls, calls)
        feed(gov)
        decisions = gov.decide(4, t=1.0)
        assert any(d.applied for d in decisions) and calls


class TestGovernorsArePure:
    """No governor module can reach a communicator or run a round, so
    no ``decide()`` can park a thread: collectives live in the two
    drivers (service bridge, array coordinator)."""

    @pytest.mark.parametrize("module", ["governors", "quota", "repartition"])
    def test_module_imports_no_mpi_and_no_round(self, module):
        import repro.control

        path = Path(repro.control.__file__).with_name(f"{module}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
        bad = sorted(
            name for name in imported
            if name.startswith("repro.mpi") or "coordination_round" in name
        )
        assert not bad, f"control/{module}.py imports {bad}"
        names = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
        } | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "coordination_round" not in names
        assert "coordinated_allreduce" not in names


class TestRegistration:
    def test_array_coordinator_registers_repartition(self):
        control = ControlConfig.from_xml_attrs({"repartition": "on"})

        def main(comm):
            plane = ControlPlane(control, comm=comm)
            workload = StencilWorkload(
                comm, StencilConfig(length=64, steps=1, block_rows=8),
                plane=plane, adaptive=True,
            )
            workload.step(1)
            workload.close()
            return [g.name for g in plane.governors]

        assert run_spmd(2, main) == [["repartition"]] * 2

    def test_service_bridge_registers_quota_and_shard(self):
        config = ServiceConfig(pipelines=(PipelineSpec(name="a"),))
        control = ControlConfig.from_xml_attrs(
            {"quota": "on", "codec": "off"}
        )

        def producer_main(sim_comm, bridge):
            bridge.execute(_adaptor({"a": _table("a", 8, 1.0)}, 0))
            return [g.name for g in bridge.control_plane.governors]

        names, _ = run_service(
            config, producer_main, {"a": lambda: [Recorder("ra")]},
            m=2, n=1, control=control,
        )
        assert names == [["quota", "shard"]] * 2


LAYOUT = st.dictionaries(
    st.text("abcdef", min_size=1, max_size=3),
    st.integers(min_value=0, max_value=5),
    max_size=4,
)


class TestCoordinationRound:
    @settings(max_examples=25, deadline=None)
    @given(layout=LAYOUT, size=st.integers(1, 3), seed=st.integers(0, 99))
    def test_unpacked_sums_equal_per_field_sums(self, layout, size, seed):
        def contribution(rank):
            rng = np.random.default_rng(seed + rank)
            return {
                name: rng.integers(-9, 9, n).astype(float)
                for name, n in sorted(layout.items())
            }

        def main(comm):
            return coordination_round(comm, contribution(comm.rank))

        for out in run_spmd(size, main):
            assert sorted(out) == sorted(layout)
            for name in layout:
                expect = sum(contribution(r)[name] for r in range(size))
                np.testing.assert_array_equal(out[name], expect)

    @settings(max_examples=10, deadline=None)
    @given(layout=LAYOUT, extra=st.integers(1, 3))
    def test_different_layouts_fail_structured(self, layout, extra):
        def main(comm):
            fields = {n: [0.0] * k for n, k in sorted(layout.items())}
            if comm.rank == 1:
                fields["zz"] = [0.0] * extra
            with pytest.raises(MPIError, match="layout skew") as err:
                coordination_round(comm, fields)
            return [tuple(s) for s in err.value.details["shapes"]]

        total = sum(layout.values())
        assert run_spmd(2, main) == [[(total,), (total + extra,)]] * 2


def test_a_tenth_governor_needs_no_edit_elsewhere():
    """Defined here, it is built, switched, logged, recorded, canonical."""

    class EchoGovernor(Governor):
        name = "echo"
        switch = "quota"  # rides an existing setting
        replayed = True
        measured_args = ("jitter",)

        def __init__(self, actuator=None, limit=0.0):
            super().__init__(actuator)
            self.limit, self.value = limit, None

        def observe(self, step, value):
            self.value = value

        def decide(self, step, t=None):
            if self.value is None:
                return []
            applied = self._actuate(self.value)
            return [self._decision(
                step, t, f"echo={self.value}", "measured 0.123", applied,
                limit=self.limit, jitter=0.123,
            )]

    assert Governor.named("echo") is EchoGovernor
    target, heard = object(), []
    wiring = lambda: dict(actuator=heard.append, limit=2.5)

    off = ControlPlane(ControlConfig.from_xml_attrs({"quota": "off"}))
    assert off.governor(EchoGovernor, target, wiring) is None
    assert off.governors == []

    plane = ControlPlane(ControlConfig.from_xml_attrs({"quota": "on"}))
    sink = RankSink(0)
    plane.attach_recorder(sink)
    gov = plane.governor(EchoGovernor, target, wiring)
    assert plane.governor(EchoGovernor, target, wiring) is gov  # cached
    assert gov.limit == 2.5
    assert plane.governors == [gov]
    gov.observe(0, 7)
    (decision,) = plane.decide(gov, 0, t=0.0)
    assert decision.applied
    assert plane.decisions == [decision]
    (event,) = sink.events
    assert event.kind == "decision"
    canon = canonical_decision(decision)
    assert dict(event.body)["args"] == canon["args"] == {"limit": 2.5}
    assert "reason" not in canon  # it quotes the measured signal
    assert heard == [7]
