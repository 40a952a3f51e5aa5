"""TransportConfig, XML parsing, and metrics tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sensei.xml_config import parse_document, parse_xml
from repro.transport.channel import FaultSpec
from repro.transport.config import TransportConfig
from repro.transport.metrics import (
    TransportMetrics,
    new_transport_timeline,
    reset_transport_timelines,
    transport_timelines,
)
from repro.units import KiB


class TestTransportConfig:
    def test_defaults(self):
        cfg = TransportConfig()
        assert cfg.compression == "none"
        assert cfg.partitioner == "block"
        assert cfg.max_inflight == 8
        assert cfg.faults == FaultSpec()  # the clean channel

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig(compression="snappy")

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig(partitioner="hilbert")

    def test_bounds(self):
        with pytest.raises(ConfigError):
            TransportConfig(chunk_bytes=0)
        with pytest.raises(ConfigError):
            TransportConfig(max_inflight=0)

    def test_with_faults(self):
        cfg = TransportConfig().with_faults(drop=0.2, seed=7)
        assert cfg.faults == FaultSpec(drop=0.2, seed=7)
        assert cfg.compression == "none"


class TestFromXmlAttrs:
    def test_full_attribute_set(self):
        cfg = TransportConfig.from_xml_attrs(
            {
                "compression": "zlib",
                "chunk_kib": "16",
                "max_inflight": "4",
                "retries": "3",
                "partitioner": "cyclic",
                "drop": "0.1",
                "duplicate": "0.05",
                "seed": "42",
            }
        )
        assert cfg.compression == "zlib"
        assert cfg.chunk_bytes == 16 * KiB
        assert cfg.max_inflight == 4
        assert cfg.retry.max_retries == 3
        assert cfg.partitioner == "cyclic"
        assert cfg.faults == FaultSpec(drop=0.1, duplicate=0.05, seed=42)

    def test_unknown_attr_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig.from_xml_attrs({"compresion": "zlib"})

    @pytest.mark.parametrize("gone", ["ack_timeout", "recv_timeout"])
    def test_removed_wall_clock_attrs_are_unknown(self, gone):
        """Gone, not silently ignored."""
        with pytest.raises(ConfigError, match="unknown attribute"):
            TransportConfig.from_xml_attrs({gone: "0.1"})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig.from_xml_attrs({"max_inflight": "many"})


class TestXmlDocument:
    XML = """
    <sensei>
      <transport compression="zlib" partitioner="weighted" drop="0.2"/>
      <analysis type="histogram" mesh="bodies" array="mass" bins="64"/>
    </sensei>
    """

    def test_parse_document_returns_transport(self):
        doc = parse_document(self.XML)
        assert doc.transport is not None
        assert doc.transport.compression == "zlib"
        assert doc.transport.partitioner == "weighted"
        assert doc.transport.faults.drop == 0.2
        assert len(doc.analyses) == 1
        assert doc.analyses[0].type == "histogram"

    def test_parse_xml_stays_compatible(self):
        cfgs = parse_xml(self.XML)
        assert [c.type for c in cfgs] == ["histogram"]

    def test_no_transport_element_is_none(self):
        doc = parse_document("<sensei><analysis type='x'/></sensei>")
        assert doc.transport is None

    def test_two_transport_elements_rejected(self):
        with pytest.raises(ConfigError):
            parse_document(
                "<sensei><transport/><transport/></sensei>"
            )

    def test_other_elements_still_rejected(self):
        with pytest.raises(ConfigError):
            parse_document("<sensei><backend type='x'/></sensei>")

    def test_configurable_analysis_exposes_transport(self):
        from repro.sensei.configurable import ConfigurableAnalysis

        ca = ConfigurableAnalysis(xml=self.XML)
        assert ca.transport is not None
        assert ca.transport.compression == "zlib"
        assert len(ca.children) == 1

    def test_configurable_analysis_without_transport(self):
        from repro.sensei.configurable import ConfigurableAnalysis

        ca = ConfigurableAnalysis(
            xml="<sensei><analysis type='histogram' mesh='m' array='a'/></sensei>"
        )
        assert ca.transport is None


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
