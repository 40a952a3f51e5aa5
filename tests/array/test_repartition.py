"""RepartitionGovernor and ArrayCoordinator: the load-balance loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.array import ArrayCoordinator, DistributedArray, HaloExchanger
from repro.control import RepartitionGovernor
from repro.control.plan import ControlConfig, ControlPlane
from repro.mpi import run_spmd

BLOCK_COSTS = [9.0, 1.0, 1.0, 1.0]   # block 0 is hot
OWNERS = (0, 0, 1, 1)                # block layout: rank 0 carries it
RANK_BUSY = [10.0, 2.0]
QUIET_HALO = [0.0, 0.0]


def rebalance(gov, step=4, **overrides):
    """One skew check: feed the signals, run the loop."""
    args = dict(
        owners=OWNERS, block_costs=BLOCK_COSTS,
        rank_busy=RANK_BUSY, halo_bytes=QUIET_HALO,
    )
    args.update(overrides)
    gov.observe(step, **args)
    return gov.decide(step, t=4.0)


class TestGovernor:
    def test_busy_skew_triggers_a_chain_recut(self):
        applied = []
        gov = RepartitionGovernor(actuator=applied.append, skew=1.25)
        (decision,) = rebalance(gov)
        assert applied == [(0, 1, 1, 1)]  # hot block isolated
        assert decision.applied
        assert decision.governor == "repartition"
        assert decision.action == "repartition: move 1 of 4 blocks"
        assert decision.time == 4.0
        assert decision.args_dict["moved"] == 1
        assert decision.args_dict["busy_skew"] == pytest.approx(10 * 2 / 12)
        assert decision.args_dict["worst_before"] == 10.0
        assert decision.args_dict["worst_after"] == 9.0

    def test_halo_skew_alone_triggers(self):
        applied = []
        gov = RepartitionGovernor(actuator=applied.append, skew=1.25)
        (decision,) = rebalance(
            gov, rank_busy=[6.0, 6.0], halo_bytes=[3000.0, 100.0]
        )
        assert applied
        assert (
            decision.args_dict["halo_skew"]
            > decision.args_dict["busy_skew"]
        )

    def test_quiet_signals_do_nothing(self):
        gov = RepartitionGovernor(actuator=lambda o: None, skew=1.25)
        assert rebalance(gov, rank_busy=[6.0, 6.1]) == []
        assert rebalance(gov, rank_busy=[0.0, 0.0]) == []

    def test_disabled_and_single_rank_skip(self):
        # Off is the config switch: the plane builds no governor at all.
        off = ControlPlane(ControlConfig())
        assert off.governor(RepartitionGovernor, object(), dict) is None
        gov = RepartitionGovernor()
        assert rebalance(
            gov, owners=(0, 0, 0, 0), rank_busy=[10.0],
            halo_bytes=[0.0],
        ) == []

    def test_already_optimal_layout_is_left_alone(self):
        gov = RepartitionGovernor(actuator=lambda o: None)
        # The chain cut of these costs IS the current layout.
        assert rebalance(gov, owners=(0, 1, 1, 1)) == []

    def test_non_improving_relabel_is_refused(self):
        gov = RepartitionGovernor(actuator=lambda o: None)
        # Equal block costs: the re-cut would only swap labels.
        assert rebalance(
            gov, owners=(1, 0), block_costs=[2.0, 2.0],
            rank_busy=[4.0, 0.0],
        ) == []

    def test_cooldown_holds_after_an_applied_recut(self):
        applied = []
        gov = RepartitionGovernor(actuator=applied.append, cooldown=2)
        rebalance(gov)
        assert len(applied) == 1
        assert rebalance(gov, step=8) == []
        assert rebalance(gov, step=12) == []
        rebalance(gov, step=16)
        assert len(applied) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RepartitionGovernor(skew=1.0)
        with pytest.raises(ValueError):
            RepartitionGovernor(cooldown=-1)


def run_loop(size, *, control=None, steps=8, interval=4, hot_cost=8.0):
    """Drive a coordinator loop: block 0's charges dominate."""

    def main(comm):
        plane = ControlPlane(control, comm=comm) if control else None
        array = DistributedArray.create(
            comm, 64, block_rows=8, halo=1, device_id=0,
        )
        array[:] = np.arange(64, dtype=np.float64)
        exchanger = HaloExchanger(comm)
        coordinator = ArrayCoordinator(
            array, exchanger, plane=plane, interval=interval,
        )
        for step in range(1, steps + 1):
            busy = {
                b: hot_cost if b == 0 else 1.0
                for b in array.partition.blocks_of(comm.rank)
            }
            coordinator.observe(step, busy, t=float(step))
        contents = array[:]
        decisions = [d.to_dict() for d in plane.decisions] if plane else []
        exchanger.close()
        array.close()
        return coordinator, contents, decisions

    return run_spmd(size, main)


class TestCoordinator:
    def test_warmup_then_cadence(self):
        def main(comm):
            array = DistributedArray.create(comm, 64, block_rows=8)
            c = ArrayCoordinator(array, None, interval=4)
            due = [s for s in range(1, 13) if c.due(s)]
            array.close()
            return due

        assert run_spmd(1, main) == [[1, 4, 8, 12]]

    def test_skewed_charges_trigger_one_coordinated_recut(self):
        out = run_loop(2)
        owners = {tuple(c.array.partition.owners) for c, _co, _d in out}
        assert len(owners) == 1  # every rank switched to the same plan
        (new_owners,) = owners
        assert new_owners != (0, 0, 0, 0, 1, 1, 1, 1)
        for coordinator, contents, _decisions in out:
            assert coordinator.repartitions == 1
            assert coordinator.blocks_moved > 0
            # The handoff preserved every row.
            np.testing.assert_array_equal(
                contents, np.arange(64, dtype=np.float64)
            )
        # bytes_moved counts *shipped* payload: the losing rank paid it.
        assert sum(c.bytes_moved for c, _co, _d in out) > 0

    def test_one_rank_decides_each_round_for_every_rank(self, monkeypatch):
        calls = []
        decide = RepartitionGovernor.decide

        def spy(gov, step, t=None):
            calls.append(step)
            return decide(gov, step, t)

        monkeypatch.setattr(RepartitionGovernor, "decide", spy)
        cfg = ControlConfig.from_xml_attrs(
            {"codec": "off", "repartition": "on", "interval": "2"},
        )
        out = run_loop(4, control=cfg)
        assert calls == [1, 2, 4, 6, 8]  # warmup, then every interval
        assert {c.rounds for c, _co, _d in out} == {5}
        (log,) = {tuple(map(str, d)) for _c, _co, d in out}
        assert log and {c.repartitions for c, _co, _d in out} == {1}
        states = {
            (c.governor.gate._hold, repr(c.governor._round))
            for c, _co, _d in out
        }
        assert len(states) == 1

    def test_single_rank_loop_is_idle(self):
        out = run_loop(1)
        coordinator = out[0][0]
        assert coordinator.rounds == 0
        assert coordinator.repartitions == 0

    def test_plane_config_disables_and_logs(self):
        off = ControlConfig.from_xml_attrs(
            {"codec": "off", "repartition": "off"},
        )
        out = run_loop(2, control=off)
        assert all(c.repartitions == 0 for c, _co, _d in out)
        assert all(not d for _c, _co, d in out)

        on = ControlConfig.from_xml_attrs(
            {"codec": "off", "repartition": "on", "interval": "4"},
        )
        out = run_loop(2, control=on)
        for coordinator, _contents, decisions in out:
            assert coordinator.repartitions == 1
            assert [d["applied"] for d in decisions] == [True]

    def test_plane_sets_cadence_governor_sets_thresholds(self):
        cfg = ControlConfig.from_xml_attrs(
            {"codec": "off", "repartition": "on", "interval": "2"},
        )

        def main(comm):
            array = DistributedArray.create(comm, 64, block_rows=8)
            plane = ControlPlane(cfg, comm=comm)
            c = ArrayCoordinator(array, None, plane=plane)
            array.close()
            due = [step for step in range(1, 7) if c.due(step)]
            return c.governor.gate.skew, c.governor.gate.cooldown, due

        # Rounds follow the plane's interval, plus the warmup round; the
        # thresholds are the governor's own defaults.
        assert run_spmd(2, main) == [(1.25, 2, [1, 2, 4, 6])] * 2
        gate = RepartitionGovernor(skew=1.5, cooldown=5).gate
        assert (gate.skew, gate.cooldown) == (1.5, 5)

    def test_parameter_validation(self):
        def main(comm):
            array = DistributedArray.create(comm, 64, block_rows=8)
            with pytest.raises(ValueError):
                ArrayCoordinator(array, None, interval=0)
            array.close()
            return True

        assert run_spmd(1, main) == [True]
