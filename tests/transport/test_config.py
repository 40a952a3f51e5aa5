"""TransportConfig and metrics tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.transport.channel import FaultSpec
from repro.transport.config import TransportConfig
from repro.transport.metrics import (
    TransportMetrics,
    new_transport_timeline,
    reset_transport_timelines,
    transport_timelines,
)


class TestTransportConfig:
    def test_defaults(self):
        cfg = TransportConfig()
        assert cfg.compression == "none"
        assert cfg.max_inflight == 8
        assert cfg.faults == FaultSpec()  # the clean channel

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig(compression="snappy")

    def test_bounds(self):
        with pytest.raises(ConfigError):
            TransportConfig(chunk_bytes=0)
        with pytest.raises(ConfigError):
            TransportConfig(max_inflight=0)

    def test_with_faults(self):
        cfg = TransportConfig().with_faults(drop=0.2, seed=7)
        assert cfg.faults == FaultSpec(drop=0.2, seed=7)
        assert cfg.compression == "none"


class TestMetrics:
    def test_compression_ratio(self):
        m = TransportMetrics(raw_bytes=1000, wire_bytes=250)
        assert m.compression_ratio == 4.0
        assert TransportMetrics().compression_ratio == 1.0

    def test_as_dict_roundtrip(self):
        m = TransportMetrics(role="sender", peer="rank0->rank1", retries=2)
        d = m.as_dict()
        assert d["role"] == "sender" and d["retries"] == 2
        assert "compression_ratio" in d

    def test_chrome_counter_events(self):
        m = TransportMetrics(
            role="sender", peer="rank0->rank1",
            raw_bytes=100, wire_bytes=50, bytes_out=60, retries=1,
        )
        (ev,) = m.chrome_counter_events(tid=3, ts=1.5)
        assert ev["ph"] == "C" and ev["tid"] == 3 and ev["ts"] == 1.5
        assert ev["args"]["retries"] == 1
        assert ev["args"]["compression_ratio"] == 2.0

    def test_timeline_registry(self):
        reset_transport_timelines()
        tl = new_transport_timeline("transport.test")
        assert tl in transport_timelines()
        reset_transport_timelines()
        assert transport_timelines() == []

    def test_counter_events_flow_into_chrome_trace(self):
        from repro.hw.trace import chrome_trace

        reset_transport_timelines()
        tl = new_transport_timeline("transport.t")
        tl.record(0.0, 1.0, name="send s0c0")
        m = TransportMetrics(role="sender", peer="a->b", retries=3)
        events = chrome_trace(
            transport_timelines(), extra_events=m.chrome_counter_events()
        )
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters and counters[0]["args"]["retries"] == 3
        reset_transport_timelines()
