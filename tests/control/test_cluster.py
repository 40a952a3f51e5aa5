"""The placement governor: its pure core, and its rounds across ranks.

One governor decides placement.  ``TestPlacementGovernor`` feeds it
folded sums by hand at one rank (no communicator anywhere);
``TestClusterGovernor`` spells the driver's round out — fold
``contribution()``, ``ingest`` the sums, ``decide`` — over N
thread-backed ranks; ``TestPlaneCoordination`` goes through the real
driver, ``ControlPlane.observe_device_loads``, on the ``spmd_control``
fixture (fresh seeded clocks, one plane per rank built from a shared
config).  The canonical crowding scenario mirrors the benchmark: 4
devices, background load on devices 1 and 2, every rank aimed at device
0 by Eq. 1 — one round spreads the ranks.

(The file keeps the name it had when the multi-rank half was a separate
``cluster`` governor, so the test ids that survive stay stable.)
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.governors import PlacementGovernor
from repro.control.plan import ControlConfig, ControlPlane
from repro.control.rounds import coordination_round
from repro.errors import MPIError
from repro.hw.contention import ContentionModel, SharedResource
from repro.mpi import run_spmd
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.placement import DevicePlacement
from repro.svtk.table import TableData
from repro.transport.metrics import TransportMetrics
from repro.transport.wire import get_codec
from repro.units import KiB

from tests.control.test_governors import Recorder

BG = {1: 1.25, 2: 1.25}  # external load pinned to devices 1 and 2
BASE = 0.5               # busy fraction each governed rank adds
AIMED_AT_0 = DevicePlacement.auto(n_use=1)


def crowded_loads(size):
    """Node-wide busy fractions with all ``size`` ranks on device 0."""
    crowd_dil = ContentionModel().dilation(
        SharedResource.GPU_COMPUTE, size - 1
    )
    loads = {0: size * BASE * crowd_dil, 3: 0.0}
    loads.update(BG)
    return loads, BASE * crowd_dil


def decide_alone(gov, step=0, t=None):
    """One rank, no driver: the folded sums are its own contribution."""
    gov.ingest(gov.contribution())
    return gov.decide(step, t)


def decide_together(comm, gov, step, t):
    """The driver's round spelled out: fold, hand the sums back, decide."""
    gov.ingest(coordination_round(comm, gov.contribution()))
    return gov.decide(step, t)


class TestPlacementGovernor:
    def test_overload_reaims_at_the_calm_set(self):
        rec = Recorder()
        gov = PlacementGovernor(actuator=rec, rank=0)  # Eq. 1 -> device 0
        gov.observe(0, {0: 0.9, 1: 0.10, 2: 0.20, 3: 0.15})
        (d,) = decide_alone(gov)
        assert rec.calls, "actuator should receive the new placement"
        new = rec.calls[0][0]
        assert isinstance(new, DevicePlacement)
        # One rank needs one device: the calmest.
        assert (new.n_use, new.offset) == (1, 1)
        assert new.resolve(0, n_available=4) == 1
        assert gov.placement == new
        assert d.args_dict["targets"] == (1,) and d.args_dict["ranks"] == 1

    def test_balanced_node_is_left_alone(self):
        gov = PlacementGovernor(rank=0)
        gov.observe(0, {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5})
        assert decide_alone(gov) == []

    def test_no_loads_no_opinion(self):
        gov = PlacementGovernor(rank=0)
        assert gov.decide(0) == []  # nothing ingested yet
        assert decide_alone(gov) == []  # ... and an idle node is fine

    def test_host_placement_is_out_of_scope(self):
        gov = PlacementGovernor(rank=0, base=DevicePlacement.host())
        gov.observe(0, {0: 0.9, 1: 0.1})
        assert decide_alone(gov) == []

    def test_contention_dilates_shared_devices(self):
        gov = PlacementGovernor(rank=0)
        gov.observe(0, {0: 0.5, 1: 0.5}, parties={0: 3, 1: 1})
        busy = gov.contribution()["busy"]
        assert busy[0] > busy[1]  # same busy fraction, but device 0 is shared

    def test_resident_pool_bytes_break_ties_toward_headroom(self):
        gov = PlacementGovernor(rank=0)
        gov.observe(
            0, {0: 0.9, 1: 0.1, 2: 0.1, 3: 0.1},
            resident_bytes={1: 1 << 20, 2: 1 << 10},
        )
        (d,) = decide_alone(gov)
        assert d.args_dict["targets"] == (3,)  # equally calm, hoards nothing


class TestClusterGovernor:
    def test_reaim_is_node_consistent_across_ranks(self, spmd_control):
        def body(comm, plane):
            applied = []
            gov = PlacementGovernor(
                actuator=applied.append, rank=comm.rank, base=AIMED_AT_0
            )
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            decisions = decide_together(comm, gov, 0, 0.0)
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
            gov = PlacementGovernor(rank=comm.rank, base=AIMED_AT_0)
            loads, self_load = crowded_loads(comm.size)
            gov.observe(0, loads, self_load=self_load)
            decide_together(comm, gov, 0, 0.0)
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
            gov = PlacementGovernor(
                actuator=lambda p: None,  # applied; state kept by governor
                rank=comm.rank, base=AIMED_AT_0,
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
                decide_together(comm, gov, step, float(step))
            return history, comm.coordination_epoch

        run = spmd_control(2, body, devices=4)
        history, rounds = run.results[0]
        assert rounds == 6
        assert history[0] == (0, 0)  # both ranks crowded at the start
        assert len(set(history[1])) == 2  # ... and spread one round later
        # ... and the spread assignment is stable, not a flap.
        assert history[-1] == history[-2] == history[1]

    def test_identical_runs_log_identical_decisions(self, spmd_control):
        def body(comm, plane):
            gov = PlacementGovernor(rank=comm.rank, base=AIMED_AT_0)
            out = []
            for step in range(4):
                loads, self_load = crowded_loads(comm.size)
                gov.observe(step, loads, self_load=self_load)
                out.extend(
                    d.to_dict()
                    for d in decide_together(comm, gov, step, float(step))
                )
            return out

        first = spmd_control(2, body, devices=4)
        second = spmd_control(2, body, devices=4)
        assert first.results == second.results


class NullAnalysis(AnalysisAdaptor):
    def __init__(self, name="null"):
        super().__init__(name)

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


def placement_config(**extra):
    attrs = {"execution": "off", "codec": "off", "pool": "off"}
    attrs.update(extra)
    return ControlConfig.from_xml_attrs(attrs)


def wired(plane, base=AIMED_AT_0):
    """An analysis aimed by ``base`` behind a bridge wired on ``plane``."""
    bridge = Bridge()
    analysis = NullAnalysis()
    analysis.set_placement(base)
    bridge.initialize(analyses=[analysis])
    bridge.attach_control(plane)
    plane.wire_bridge(bridge)
    return analysis


class FlowSender:
    """A sender a flow governor can drive: cumulative metrics, a window
    every step fills, a clean link with a flat ACK round trip."""

    def __init__(self, credits=4):
        self.metrics = TransportMetrics(role="sender", peer="test")
        self.codec = get_codec("none")
        self.window = SimpleNamespace(credits=credits)
        self.chunk_bytes = 4 * KiB

    def set_window(self, credits):
        self.window.credits = credits

    def set_chunk_bytes(self, nbytes):
        self.chunk_bytes = nbytes

    def ship(self):
        self.metrics.chunks_sent += 4
        self.metrics.ack_latency = 1e-4
        self.metrics.inflight_peak = self.window.credits


class TestPlaneCoordination:
    def run_plane(self, spmd_control, config, size=2, steps=1):
        def body(comm, plane):
            analysis = wired(plane)
            for step in range(steps):
                loads, self_load = crowded_loads(comm.size)
                plane.observe_device_loads(step, loads, self_load=self_load)
            return analysis.placement, comm.coordination_epoch

        return spmd_control(size, body, config=config, devices=4)

    def test_plane_applies_node_consistent_reaim(self, spmd_control):
        run = self.run_plane(spmd_control, placement_config())
        placements = [placement for placement, _rounds in run.results]
        assert placements[0] == placements[1]
        assert placements[0].n_use == 2
        for rank in range(2):
            names = {d.governor for d in run.decisions(rank)}
            assert names == {"placement"}
            assert "crowding" in run.actions(rank)
        assert run.decisions(0)[0].to_dict() == run.decisions(1)[0].to_dict()

    def test_crowding_logged_with_its_devices(self, spmd_control):
        run = self.run_plane(spmd_control, placement_config())
        crowding = [d for d in run.planes[0].decisions if d.action == "crowding"]
        assert crowding
        decision = crowding[0]
        assert decision.governor == "placement" and not decision.applied
        assert decision.args_dict["crowded"] and decision.args_dict["idle"]

    def test_placement_off_disables_coordination(self, spmd_control):
        run = self.run_plane(spmd_control, placement_config(placement="off"))
        for plane, (_placement, rounds) in zip(run.planes, run.results):
            assert plane.governors == []
            assert rounds == 0  # no governor, no round

    def test_interval_gates_rounds(self, spmd_control):
        """Rounds run on the plane's one cadence, ``interval``."""
        run = self.run_plane(
            spmd_control, placement_config(interval="2"), steps=4
        )
        assert [rounds for _p, rounds in run.results] == [2, 2]  # steps 0, 2

    def test_cadence_skew_between_ranks_is_a_structured_error(
        self, spmd_control
    ):
        def body(comm, plane):
            wired(plane)
            loads, self_load = crowded_loads(comm.size)
            if comm.rank == 1:  # one round ahead of rank 0
                comm._coordination_epoch += 1
            with pytest.raises(MPIError, match="round skew"):
                plane.observe_device_loads(0, loads, self_load=self_load)
            return True

        run = spmd_control(2, body, config=placement_config(), devices=4)
        assert run.results == [True, True]

    def test_uneven_bridge_steps_finish(self, spmd_control):
        """No collective hides in ``observe_bridge_step``: ranks may call
        ``bridge.execute`` a different number of times."""

        def body(comm, plane):
            bridge = Bridge()
            bridge.initialize(comm, analyses=[NullAnalysis()])
            bridge.attach_control(plane)
            for step in range(2 + comm.rank):
                table = TableData("bodies")
                table.add_host_column("x", np.zeros(8))
                data = TableDataAdaptor({"bodies": table})
                data.set_step(step, 0.1 * step)
                bridge.execute(data)
            bridge.finalize()
            return len(bridge.step_costs), comm.coordination_epoch

        run = spmd_control(2, body, config=ControlConfig())
        assert run.results == [(2, 0), (3, 0)]
        for plane in run.planes:
            assert "placement" in [g.name for g in plane.governors]

    def test_every_flow_governor_takes_the_node_means(self, spmd_control):
        """Two flow-governed senders per plane: the device-load round's
        node means reach both governors, so neither stalls behind the
        round and both windows keep growing."""

        def body(comm, plane):
            wired(plane)
            senders = [FlowSender(), FlowSender()]
            for step in range(6):
                for sender in senders:
                    sender.ship()
                    plane.observe_transport_step(sender, step, 1e-3)
                loads, self_load = crowded_loads(comm.size)
                plane.observe_device_loads(step, loads, self_load=self_load)
            flows = [g for g in plane.governors if g.name == "flow"]
            steps = [d.step for d in plane.decisions if d.governor == "flow"]
            return (
                [(g.coordinated, g.credits) for g in flows],
                [s.window.credits for s in senders], steps,
            )

        run = spmd_control(2, body, config=placement_config(flow="on"), devices=4)
        for governors, windows, steps in run.results:
            assert governors == [(True, 10), (True, 10)]
            assert windows == [10, 10]
            assert steps == [step for step in range(6) for _ in range(2)]

    def test_coordinating_plane_without_comm_falls_back(self):
        """No communicator given: the bridge's own is adopted, and at
        its one rank the governor decides on its own contribution."""
        plane = ControlPlane(placement_config())
        analysis = wired(plane)
        assert [g.name for g in plane.governors] == ["placement"]
        plane.observe_device_loads(0, {0: 0.9, 1: 0.1, 2: 0.1, 3: 0.0})
        (d,) = plane.decisions
        assert d.applied and d.args_dict["ranks"] == 1
        assert analysis.placement.resolve(0, n_available=4) == 3


DEVICE_LOADS = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    min_size=4, max_size=4,
)


class TestOneRankIsTheSizeOneCase:
    @settings(max_examples=20, deadline=None)
    @given(
        loads=DEVICE_LOADS,
        resident=st.lists(st.integers(0, 1 << 20), min_size=4, max_size=4),
        self_load=st.floats(min_value=0.0, max_value=1.0),
        size=st.integers(2, 3),
        n_use=st.integers(1, 4),
    )
    def test_any_rank_count_decides_as_one_rank_fed_the_same_sums(
        self, loads, resident, self_load, size, n_use
    ):
        base = DevicePlacement.auto(n_use=n_use)
        feed = dict(
            loads=dict(enumerate(loads)), self_load=self_load,
            resident_bytes=dict(enumerate(resident)),
        )

        def main(comm):
            plane = ControlPlane(placement_config(), comm=comm)
            wired(plane, base)
            (gov,) = plane.governors
            gov.observe(0, **feed)
            contributed = gov.contribution()
            plane.observe_device_loads(0, **feed)
            return (
                contributed, [d.to_dict() for d in plane.decisions],
                comm.coordination_epoch,
            )

        together = run_spmd(size, main)
        logs = [log for _fields, log, _rounds in together]
        assert all(log == logs[0] for log in logs)
        assert [rounds for _f, _l, rounds in together] == [1] * size

        # A governor that never saw a communicator, handed the sums.
        lone = PlacementGovernor(lambda p: None, rank=0, base=base)
        lone.ingest({
            name: np.sum([fields[name] for fields, _l, _r in together], axis=0)
            for name in together[0][0]
        })
        assert [d.to_dict() for d in lone.decide(0, t=0.0)] == logs[0]

        # ... and a one-rank run is that, with no round at all.
        ((contributed, log, rounds),) = run_spmd(1, main)
        assert rounds == 0
        alone = PlacementGovernor(lambda p: None, rank=0, base=base)
        alone.ingest(contributed)
        assert [d.to_dict() for d in alone.decide(0, t=0.0)] == log
