"""Tests for ControlConfig parsing and the ControlPlane wiring/taps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plan import (
    ControlConfig,
    ControlPlane,
    estimate_deep_copy_time,
    payload_nbytes,
)
from repro.errors import ConfigError
from repro.hamr.runtime import current_clock
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.svtk.table import TableData
from repro.transport.metrics import TransportMetrics
from repro.transport.wire import get_codec
from repro.units import MiB, gbs


class TestGovernorSetting:
    """A governor's setting is an on/off ``bool`` read with the boolean
    vocabulary of every config element; there is no third state."""

    @pytest.mark.parametrize("raw", ["on", "1", "true", "YES"])
    def test_on(self, raw):
        assert ControlConfig.from_xml_attrs({"codec": raw}).codec is True

    @pytest.mark.parametrize("raw", ["off", "0", "False", "no"])
    def test_off(self, raw):
        assert ControlConfig.from_xml_attrs({"codec": raw}).codec is False

    @pytest.mark.parametrize("raw", ["freeze", "frozen", "observe"])
    def test_freeze(self, raw):
        with pytest.raises(
            ConfigError, match=r"<control>: attribute 'codec' must be a boolean"
        ):
            ControlConfig.from_xml_attrs({"codec": raw})

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match=r"<control>.*'codec'.*'maybe'"):
            ControlConfig.from_xml_attrs({"codec": "maybe"})


class TestControlConfig:
    def test_defaults(self):
        cfg = ControlConfig()
        assert cfg.interval == 1 and cfg.seed == 0
        assert cfg.codec is True and cfg.flow is False
        switches = [v for v in vars(cfg).values() if isinstance(v, bool)]
        assert len(switches) == 7

    @pytest.mark.parametrize("kwargs", [{"interval": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ControlConfig(**kwargs)

    def test_from_xml_attrs(self):
        cfg = ControlConfig.from_xml_attrs(
            {
                "seed": "7",
                "interval": "2",
                "codec": "off",
                "placement": "off",
            }
        )
        assert cfg.seed == 7 and cfg.interval == 2
        assert cfg.codec is False and cfg.placement is False
        assert cfg.execution is True  # unmentioned: default on

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ConfigError, match="unknown attribute"):
            ControlConfig.from_xml_attrs({"kodec": "on"})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="interval"):
            ControlConfig.from_xml_attrs({"interval": "often"})

    def test_bad_enabled_rejected(self):
        """``enabled`` is gone: attach no plane, or switch governors off."""
        with pytest.raises(ConfigError, match=r"unknown attribute.*'enabled'"):
            ControlConfig.from_xml_attrs({"enabled": "maybe"})


def make_adaptor(step, n=256):
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(n))
    da = TableDataAdaptor({"bodies": t})
    da.set_step(step, 0.1 * step)
    return da


class TestPayloadHelpers:
    def test_payload_nbytes_counts_table_columns(self):
        assert payload_nbytes(make_adaptor(0, n=256)) == 256 * 8

    def test_copy_estimate_positive_and_scales(self):
        small = estimate_deep_copy_time(make_adaptor(0, n=64))
        large = estimate_deep_copy_time(make_adaptor(0, n=4096))
        assert 0 < small < large


class HeavyAnalysis(AnalysisAdaptor):
    """In situ work that costs ``cost`` simulated seconds per step."""

    def __init__(self, cost=0.5):
        super().__init__("heavy")
        self.cost = cost

    def acquire(self, data, deep):
        return data.time_step

    def process(self, payload, comm, device_id):
        current_clock().advance(self.cost)


#: Every governor switched off: the plane still observes, builds nothing.
ALL_OFF = ControlConfig.from_xml_attrs(
    {"codec": "off", "execution": "off", "placement": "off", "pool": "off"}
)


class TestControlPlaneBridge:
    """Single-rank bridge scenarios on the shared ``spmd_control`` fixture.

    Each scenario runs as a 1-rank SPMD program: the fixture supplies
    the communicator, a fresh seeded clock, and the rank's control
    plane, exactly as the multi-rank coordination tests do.
    """

    def run_bridge(self, spmd_control, config, steps=6, cost=0.5):
        def body(comm, plane):
            bridge = Bridge()
            heavy = HeavyAnalysis(cost=cost)
            bridge.initialize(analyses=[heavy])
            if plane is not None:
                bridge.attach_control(plane)
            clk = current_clock()
            start = clk.now
            for step in range(steps):
                clk.advance(1.0)  # the solver
                bridge.execute(make_adaptor(step))
            bridge.finalize()
            return heavy, clk.now - start

        return spmd_control(1, body, config=config)

    def test_heavy_insitu_flips_to_asynchronous(self, spmd_control):
        run = self.run_bridge(spmd_control, ControlConfig())
        heavy, _ = run.results[0]
        plane = run.planes[0]
        assert heavy.execution_method is ExecutionMethod.ASYNCHRONOUS
        assert "execution=asynchronous" in run.actions(0)
        assert plane.observations == 6
        assert any(d.governor == "execution" for d in plane.decisions)

    def test_light_insitu_stays_lockstep(self, spmd_control):
        run = self.run_bridge(spmd_control, ControlConfig(), cost=0.001)
        heavy, _ = run.results[0]
        assert heavy.execution_method is ExecutionMethod.LOCKSTEP
        assert not [d for d in run.decisions(0) if d.governor == "execution"]

    def test_disabled_plane_is_inert(self, spmd_control):
        run = self.run_bridge(spmd_control, ALL_OFF)
        heavy, _ = run.results[0]
        plane = run.planes[0]
        assert heavy.execution_method is ExecutionMethod.LOCKSTEP
        assert plane.observations == 6  # still observing
        assert plane.decisions == [] and plane.governors == []

    def test_disabled_plane_matches_no_plane_bit_identically(self, spmd_control):
        t_without = None
        for config in (None, ALL_OFF):
            run = self.run_bridge(spmd_control, config)
            _, elapsed = run.results[0]
            if t_without is None:
                t_without = elapsed
            else:
                assert elapsed == t_without

    def test_placement_governor_follows_device_loads(self, spmd_control):
        def body(comm, plane):
            bridge = Bridge()
            bridge.initialize(analyses=[HeavyAnalysis(cost=0.01)])
            bridge.attach_control(plane)
            bridge.execute(make_adaptor(0))
            plane.observe_device_loads(0, {0: 0.95, 1: 0.1, 2: 0.1, 3: 0.1})
            bridge.finalize()
            return bridge.analyses[0].placement

        run = spmd_control(1, body, config=ControlConfig())
        placement = run.results[0]
        placed = [d for d in run.decisions(0) if d.governor == "placement"]
        assert len(placed) == 1
        assert placed[0].applied
        # One rank, one device: the calmest.
        assert (placement.n_use, placement.offset) == (1, 1)


class FakeSender:
    """Stands in for a ReliableSender: cumulative metrics + codec knob."""

    def __init__(self):
        self.metrics = TransportMetrics(role="sender", peer="test")
        self.codec = get_codec("none")
        self.switched = []

    def set_codec(self, name):
        self.codec = get_codec(name)
        self.switched.append(name)

    def ship(self, nbytes, bandwidth):
        """Pretend to send ``nbytes`` over a ``bandwidth`` B/s link."""
        m = self.metrics
        wire = nbytes if self.codec.name == "none" else nbytes // 100
        m.raw_bytes += nbytes
        m.wire_bytes += wire
        m.bytes_out += wire
        from repro.transport.wire import SERIALIZE_BANDWIDTH

        encode = nbytes / SERIALIZE_BANDWIDTH
        if self.codec.name != "none":
            encode += self.codec.compress_time(nbytes)
        apparent = encode + wire / bandwidth
        current_clock().advance(apparent)
        return apparent


class LatestObservation:
    """A recorder sink that keeps the last observation the plane pushed."""

    latest = None

    def on_decision(self, decision):
        pass

    def on_observation(self, obs, origin):
        self.latest = obs


class TestControlPlaneTransport:
    def drive(self, plane, bandwidth, steps=6):
        sender = FakeSender()
        table = TableData("t")
        table.add_host_column("x", np.zeros(4096))
        for step in range(steps):
            apparent = sender.ship(int(1 * MiB), bandwidth)
            plane.observe_transport_step(
                sender, step, apparent, table=table
            )
        return sender

    def test_slow_link_switches_codec(self):
        plane = ControlPlane(ControlConfig())
        sink = LatestObservation()
        plane.attach_recorder(sink)
        sender = self.drive(plane, bandwidth=gbs(0.02))
        assert sender.switched == ["zlib"]
        assert any(d.action == "codec=zlib" for d in plane.decisions)
        obs = sink.latest
        assert obs.payload_bytes == int(1 * MiB)
        assert dict(obs.extras)["codec"] == "zlib"

    def test_fast_link_keeps_raw(self):
        plane = ControlPlane(ControlConfig())
        sender = self.drive(plane, bandwidth=gbs(50.0))
        assert sender.switched == []

    def test_codec_off_means_no_governor(self):
        cfg = ControlConfig.from_xml_attrs({"codec": "off"})
        plane = ControlPlane(cfg)
        sender = self.drive(plane, bandwidth=gbs(0.02))
        assert sender.switched == []
        assert plane.governors == []
        assert plane.observations == 6  # still observing

    def test_replaced_sender_does_not_inherit_counters(self):
        """A sender freed and replaced (possibly at the same address)
        starts from zero: the plane keeps per-target state that holds
        its target, not marks keyed by a recyclable ``id``."""
        cfg = ControlConfig.from_xml_attrs({"codec": "off", "flow": "off"})
        plane = ControlPlane(cfg)
        sink = LatestObservation()
        plane.attach_recorder(sink)
        for attempt in range(50):
            old = FakeSender()
            old.metrics.raw_bytes, old.metrics.bytes_out = 1000, 1089
            plane.observe_transport_step(old, 2 * attempt, 1e-3)
            del old
            new = FakeSender()
            new.metrics.raw_bytes, new.metrics.bytes_out = 10, 11
            plane.observe_transport_step(new, 2 * attempt + 1, 1e-3)
            obs = sink.latest
            assert (obs.payload_bytes, obs.wire_bytes) == (10, 11)

    def test_decisions_deterministic_for_identical_traffic(self):
        def run():
            plane = ControlPlane(ControlConfig(seed=11))
            self.drive(plane, bandwidth=gbs(0.02))
            return [(d.step, d.action) for d in plane.decisions]

        assert run() == run()


class TestDecisionLog:
    def make_plane_with_decision(self):
        plane = ControlPlane(ControlConfig())
        bridge = Bridge()
        bridge.initialize(analyses=[HeavyAnalysis(cost=0.5)])
        bridge.attach_control(plane)
        clk = current_clock()
        for step in range(3):
            clk.advance(1.0)
            bridge.execute(make_adaptor(step))
        bridge.finalize()
        return plane

    def test_decision_shape(self):
        plane = self.make_plane_with_decision()
        assert plane.decisions
        decision = plane.decisions[0]
        assert decision.governor == "execution"
        assert {"step", "reason", "applied"} <= set(decision.to_dict())
