"""Multi-rank tests for the cluster placement governor and its wiring.

Every scenario runs on the ``spmd_control`` fixture: N thread-backed
ranks, fresh seeded clocks, one ``ControlPlane`` per rank built from a
shared config.  The canonical crowding scenario mirrors the benchmark:
4 devices, background load on devices 1 and 2, every rank aimed at
device 0 by Eq. 1 — per-rank governors flap (each rank flees to the
same calm device), the coordinated governor spreads the ranks in one
round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.cluster import ClusterPlacementGovernor
from repro.control.plan import ControlConfig, ControlPlane
from repro.errors import ConfigError
from repro.hw.contention import ContentionModel, SharedResource
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.placement import DevicePlacement
from repro.sensei.xml_config import parse_document

BG = {1: 1.25, 2: 1.25}  # external load pinned to devices 1 and 2
BASE = 0.5               # busy fraction each governed rank adds
DIL = ContentionModel().dilation(SharedResource.GPU_COMPUTE, 1)


def crowded_loads(size):
    """Node-wide busy fractions with all ``size`` ranks on device 0."""
    crowd_dil = ContentionModel().dilation(
        SharedResource.GPU_COMPUTE, size - 1
    )
    loads = {0: size * BASE * crowd_dil, 3: 0.0}
    loads.update(BG)
    return loads, BASE * crowd_dil


class NullAnalysis(AnalysisAdaptor):
    def __init__(self, name="null"):
        super().__init__(name)

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


def coordination_config(**extra):
    attrs = {
        "coordination": "node",
        "execution": "off",
        "codec": "off",
        "pool": "off",
    }
    attrs.update(extra)
    return ControlConfig.from_xml_attrs(attrs)


class TestClusterGovernor:
    def test_reaim_is_node_consistent_across_ranks(self, spmd_control):
        def body(comm, plane):
            applied = []
            gov = ClusterPlacementGovernor(
                comm,
                actuator=applied.append,
                base=DevicePlacement.auto(n_use=1),
            )
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            decisions = gov.decide(0, t=0.0)
            return gov.placement, [d.to_dict() for d in decisions], applied

        run = spmd_control(2, body, devices=4)
        placements = [r[0] for r in run.results]
        logs = [r[1] for r in run.results]
        assert placements[0] == placements[1]
        p = placements[0]
        assert (p.n_use, p.stride, p.offset) == (2, 1, 3)
        # Per-rank Eq. 1 resolution now fans the ranks out.
        assert {p.resolve(r, n_available=4) for r in range(2)} == {0, 3}
        assert logs[0] == logs[1]
        assert all(r[2] == [p] for r in run.results)

    def test_crowding_decision_carries_counts(self, spmd_control):
        def body(comm, plane):
            gov = ClusterPlacementGovernor(
                comm, base=DevicePlacement.auto(n_use=1)
            )
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            gov.decide(0, t=0.0)
            return gov.last_crowding

        run = spmd_control(3, body, devices=4)
        for crowding in run.results:
            assert crowding is not None
            assert crowding.action == "crowding"
            assert not crowding.applied  # a finding, not an actuation
            args = crowding.args_dict
            assert args["crowded"] == ((0, 3),)
            assert args["idle"] == (1, 2, 3)
            assert args["counts"] == (3, 0, 0, 0)

    def test_converges_within_five_rounds_and_stays(self, spmd_control):
        """The acceptance loop: re-aim round 0, non-overlap from step 1."""

        def body(comm, plane):
            gov = ClusterPlacementGovernor(
                comm,
                actuator=lambda p: None,  # applied; state kept by governor
                base=DevicePlacement.auto(n_use=1),
            )
            contention = ContentionModel()
            history = []
            for step in range(6):
                current = gov.placement.resolve(comm.rank, n_available=4)
                assignment = comm.allgather(current)
                history.append(tuple(assignment))
                counts = {d: assignment.count(d) for d in set(assignment)}
                loads = dict(BG)
                for d, c in counts.items():
                    dil = contention.dilation(
                        SharedResource.GPU_COMPUTE, c - 1
                    )
                    loads[d] = loads.get(d, 0.0) + c * BASE * dil
                self_dil = contention.dilation(
                    SharedResource.GPU_COMPUTE, counts[current] - 1
                )
                gov.observe(step, loads, self_load=BASE * self_dil)
                gov.decide(step, t=float(step))
            return history, gov.rounds

        run = spmd_control(2, body, devices=4)
        history, rounds = run.results[0]
        assert rounds == 6
        assert history[0] == (0, 0)  # both ranks crowded at the start
        for assignment in history[1:5]:
            if len(set(assignment)) == len(assignment):
                break
        else:
            pytest.fail(f"no non-overlapping round within 5: {history}")
        # ... and the spread assignment is stable, not a flap.
        assert history[-1] == history[-2]
        assert len(set(history[-1])) == 2

    def test_frozen_governor_dry_runs(self, spmd_control):
        def body(comm, plane):
            applied = []
            gov = ClusterPlacementGovernor(
                comm,
                actuator=applied.append,
                base=DevicePlacement.auto(n_use=1),
                frozen=True,
            )
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            decisions = gov.decide(0, t=0.0)
            return gov.placement, decisions, applied

        run = spmd_control(2, body, devices=4)
        for placement, decisions, applied in run.results:
            assert placement == DevicePlacement.auto(n_use=1)
            assert applied == []
            reaims = [
                d for d in decisions if d.action.startswith("placement=")
            ]
            assert reaims and not reaims[0].applied

    def test_disabled_rank_still_participates(self, spmd_control):
        """Enable-state mismatch must not deadlock the collective."""

        def body(comm, plane):
            gov = ClusterPlacementGovernor(
                comm,
                base=DevicePlacement.auto(n_use=1),
                enabled=comm.rank == 0,
            )
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            return gov.decide(0, t=0.0)

        run = spmd_control(2, body, devices=4)
        assert run.results[1] == []  # disabled: contributes zeros only
        # Rank 0 sees a single participant and no crowding.
        assert all(
            d.action != "crowding" for d in run.results[0]
        )

    def test_identical_runs_log_identical_decisions(self, spmd_control):
        def body(comm, plane):
            gov = ClusterPlacementGovernor(
                comm, base=DevicePlacement.auto(n_use=1)
            )
            out = []
            for step in range(4):
                loads, self_load = crowded_loads(comm.size)
                gov.observe(step, loads, self_load=self_load)
                out.extend(
                    d.to_dict() for d in gov.decide(step, t=float(step))
                )
            return out

        first = spmd_control(2, body, devices=4)
        second = spmd_control(2, body, devices=4)
        assert first.results == second.results


class TestPlaneCoordination:
    def run_plane(self, spmd_control, config, size=2, steps=1):
        def body(comm, plane):
            bridge = Bridge()
            analysis = NullAnalysis()
            analysis.set_placement(DevicePlacement.auto(n_use=1))
            bridge.initialize(analyses=[analysis])
            bridge.attach_control(plane)
            plane.wire_bridge(bridge)
            for step in range(steps):
                loads, self_load = crowded_loads(comm.size)
                plane.observe_device_loads(step, loads, self_load=self_load)
            return analysis.placement

        return spmd_control(size, body, config=config, devices=4)

    def test_plane_applies_node_consistent_reaim(self, spmd_control):
        run = self.run_plane(spmd_control, coordination_config())
        placements = run.results
        assert placements[0] == placements[1]
        assert placements[0].n_use == 2
        for rank in range(2):
            names = {d.governor for d in run.decisions(rank)}
            assert names == {"cluster"}
            assert "crowding" in run.actions(rank)
        assert run.decisions(0)[0].to_dict() == run.decisions(1)[0].to_dict()

    def test_crowding_exported_as_instant_events(self, spmd_control):
        run = self.run_plane(spmd_control, coordination_config())
        events = run.planes[0].chrome_instant_events()
        crowding = [e for e in events if "crowding" in e["name"]]
        assert crowding
        ev = crowding[0]
        assert ev["ph"] == "i" and ev["s"] == "g" and ev["cat"] == "control"
        assert ev["args"]["crowded"] and ev["args"]["idle"]

    def test_coordination_off_keeps_per_rank_governor(self, spmd_control):
        cfg = ControlConfig.from_xml_attrs(
            {"execution": "off", "codec": "off", "pool": "off"}
        )
        run = self.run_plane(spmd_control, cfg)
        for plane in run.planes:
            assert [g.name for g in plane.governors] == ["placement"]
            assert not plane.coordinating

    def test_placement_off_disables_coordination(self, spmd_control):
        cfg = coordination_config(placement="off")
        run = self.run_plane(spmd_control, cfg)
        for plane in run.planes:
            assert plane.governors == []
            assert not plane.coordinating

    def test_placement_freeze_dry_runs_coordination(self, spmd_control):
        run = self.run_plane(
            spmd_control, coordination_config(placement="freeze")
        )
        for rank, placement in enumerate(run.results):
            assert placement == DevicePlacement.auto(n_use=1)
            reaims = [
                d for d in run.decisions(rank)
                if d.action.startswith("placement=")
            ]
            assert reaims and not reaims[0].applied

    def test_coordination_interval_gates_rounds(self, spmd_control):
        cfg = coordination_config(coordination_interval="2")
        run = self.run_plane(spmd_control, cfg, steps=4)
        for plane in run.planes:
            (gov,) = [g for g in plane.governors if g.name == "cluster"]
            assert gov.rounds == 2  # steps 0 and 2 only

    def test_attach_comm_after_wiring_rejected(self, spmd_control):
        def body(comm, plane):
            bridge = Bridge()
            analysis = NullAnalysis()
            bridge.initialize(analyses=[analysis])
            plane.wire_bridge(bridge)
            plane.attach_comm(comm)  # same comm: fine
            with pytest.raises(ConfigError, match="cannot change"):
                plane.attach_comm(object())
            return True

        run = spmd_control(2, body, config=coordination_config(), devices=4)
        assert run.results == [True, True]

    def test_coordinating_plane_without_comm_falls_back(self):
        plane = ControlPlane(coordination_config())
        bridge = Bridge()
        bridge.initialize(analyses=[NullAnalysis()])
        plane.wire_bridge(bridge)
        # The bridge's own SelfCommunicator was adopted instead.
        assert [g.name for g in plane.governors] == ["cluster"]


class TestCoordinationConfig:
    def test_xml_round_trip(self):
        doc = parse_document(
            """
            <sensei>
              <control coordination="node" coordination_interval="4"/>
              <analysis type="histogram" mesh="m" array="a"/>
            </sensei>
            """
        )
        assert doc.control.coordination == "node"
        assert doc.control.coordination_interval == 4

    def test_defaults_off(self):
        cfg = ControlConfig()
        assert cfg.coordination == "off"
        assert cfg.coordination_interval == 1
        assert not ControlPlane(cfg).coordinating

    def test_bad_coordination_rejected(self):
        with pytest.raises(ConfigError, match="coordination"):
            ControlConfig(coordination="rack")

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError, match="coordination_interval"):
            ControlConfig.from_xml_attrs(
                {"coordination": "node", "coordination_interval": "0"}
            )
