"""Tests for the codec governor and the decision record.  (Flow:
``test_flow_governor.py``.)"""

from __future__ import annotations

from repro.control.governors import CodecGovernor
from repro.hamr.runtime import current_clock
from repro.units import MiB, gbs


class Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)


def feed_codec(gov, steps=4, payload=int(4 * MiB), bandwidth=gbs(0.05),
               sample=b"\x00" * 8192):
    """Feed ``steps`` uncompressed observations at a given link speed."""
    for step in range(steps):
        gov.observe(
            step,
            raw_bytes=payload,
            wire_bytes=payload,
            transfer_time=payload / bandwidth,
            sample=sample,
        )


class TestCodecGovernor:
    def test_silent_until_estimates_warm(self):
        gov = CodecGovernor()
        assert gov.decide(0) == []

    def test_slow_link_switches_to_compression(self):
        rec = Recorder()
        gov = CodecGovernor(actuator=rec, initial="none")
        feed_codec(gov, bandwidth=gbs(0.05))  # zeros compress ~1000x
        (d,) = gov.decide(4)
        assert d.action == "codec=zlib"
        assert d.applied
        assert rec.calls == [("zlib",)]
        assert gov.current == "zlib"
        assert d.args_dict["cost_best"] < d.args_dict["cost_current"]

    def test_fast_link_stays_uncompressed(self):
        """When the wire outruns the compressor, paying it is a loss."""
        rec = Recorder()
        gov = CodecGovernor(actuator=rec, initial="none")
        feed_codec(gov, bandwidth=gbs(100.0))
        assert gov.decide(4) == []
        assert rec.calls == []

    def test_margin_suppresses_marginal_switches(self):
        gov_tight = CodecGovernor(margin=1.0)
        gov_wide = CodecGovernor(margin=1e9)
        for g in (gov_tight, gov_wide):
            feed_codec(g, bandwidth=gbs(0.05))
        assert len(gov_tight.decide(4)) == 1
        assert gov_wide.decide(4) == []

    def test_probe_charges_the_simulated_clock(self):
        clk = current_clock()
        before = clk.now
        gov = CodecGovernor()
        gov.observe(0, raw_bytes=1024, wire_bytes=1024, transfer_time=0.01,
                    sample=b"\x01" * 4096)
        assert clk.now > before  # adaptivity is not free


class TestDecisionRecord:
    def test_to_dict_round_trip(self):
        gov = CodecGovernor()
        feed_codec(gov, bandwidth=gbs(0.05))
        (d,) = gov.decide(3, t=12.5)
        out = d.to_dict()
        assert out["governor"] == "codec"
        assert out["step"] == 3
        assert out["time"] == 12.5
        assert out["applied"] is False  # no actuator attached
        assert out["args"]["previous"] == "none"
