"""Tests for ControlConfig parsing and the ControlPlane wiring/tap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plan import ControlConfig, ControlPlane
from repro.errors import ConfigError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import CommCostModel
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport.metrics import TransportMetrics
from repro.transport.wire import get_codec
from repro.units import MiB, gbs, us


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
        assert len(switches) == 4

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
                "flow": "on",
            }
        )
        assert cfg.seed == 7 and cfg.interval == 2
        assert cfg.codec is False and cfg.flow is True
        assert cfg.quota is False  # unmentioned: its default

    @pytest.mark.parametrize("name", ["execution", "placement", "pool"])
    def test_retired_switch_may_only_be_off(self, name):
        """The execution, placement and pool governors are gone: their
        switches still parse as off, and on names the removed governor."""
        for raw in ("off", "0", "False", "no"):
            assert ControlConfig.from_xml_attrs({name: raw}) == ControlConfig()
        for raw in ("on", "1", "true", "maybe"):
            with pytest.raises(
                ConfigError, match=rf"<control>: the {name} governor was removed"
            ):
                ControlConfig.from_xml_attrs({name: raw})

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


class Sink(AnalysisAdaptor):
    """An endpoint analysis that does nothing."""

    def __init__(self):
        super().__init__("sink")
        self.set_device_id(-1)

    def acquire(self, data, deep):
        return None

    def process(self, payload, comm, device_id):
        pass


#: Every governor switched off: the plane still observes, builds nothing.
ALL_OFF = ControlConfig.from_xml_attrs({"codec": "off"})


class TestControlPlaneBridge:
    """A plane attached to an in transit producer's bridge."""

    def run_bridge(self, config, steps=6):
        """Elapsed simulated time and the plane (None without one) of a
        producer shipping ``steps`` compressible steps over a slow link."""
        fresh_substrate("plane-bridge")

        def producer_main(sim_comm, bridge):
            clk = current_clock()
            start = clk.now
            for step in range(steps):
                clk.advance(1.0)  # the solver
                table = TableData("bodies")
                table.add_host_column("x", np.zeros(4096))
                adaptor = TableDataAdaptor({"bodies": table})
                adaptor.set_step(step, 0.1 * step)
                bridge.execute(adaptor)
            return clk.now - start, bridge.control_plane

        results, _ = run_in_transit(
            InTransitLayout(m=1, n=1), producer_main, lambda: [Sink()],
            cost=CommCostModel(latency=us(5.0), bandwidth=gbs(0.02)),
            control=config,
        )
        return results[0]

    def test_disabled_plane_is_inert(self):
        _, live = self.run_bridge(ControlConfig())
        assert live.decisions  # the link is one the codec governor acts on
        _, plane = self.run_bridge(ALL_OFF)
        assert plane.observations == 6  # still observing
        assert plane.decisions == [] and plane.governors == []

    def test_disabled_plane_matches_no_plane_bit_identically(self):
        without, _ = self.run_bridge(None)
        with_off, _ = self.run_bridge(ALL_OFF)
        assert with_off == without


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

    def on_observation(self, obs):
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
    def test_decision_shape(self):
        plane = ControlPlane(ControlConfig())
        TestControlPlaneTransport().drive(plane, bandwidth=gbs(0.02))
        assert plane.decisions
        decision = plane.decisions[0]
        assert decision.governor == "codec"
        assert {"step", "reason", "applied"} <= set(decision.to_dict())
