"""One attribute reader, one header codec — both derived from the
config dataclasses, so a field declared once is read and recorded."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.governors import FlowBounds
from repro.control.plan import ControlConfig
from repro.errors import ConfigError, TraceFormatError
from repro.sensei.xml_config import parse_xml
from repro.service.plan import PipelineSpec, ServiceConfig
from repro.trace.configs import decode_config, encode_config
from repro.transport.channel import FaultSpec
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.xmlattrs import parse_bool, read_attrs

SETTINGS = dict(max_examples=40, deadline=None)

# -- strategies: every field of every config gets a non-default draw -----------

_prob = st.floats(min_value=0.0, max_value=1.0)
_pos = st.floats(min_value=1e-6, max_value=1e3)
_count = st.integers(min_value=1, max_value=1 << 20)
_names = st.text("abcdefghij_", min_size=1, max_size=6)


@st.composite
def retries(draw):
    base = draw(st.floats(min_value=0.0, max_value=1e-3))
    return RetryPolicy(
        max_retries=draw(st.integers(0, 64)), backoff_base=base,
        backoff_factor=draw(st.floats(min_value=1.0, max_value=4.0)),
        backoff_max=base + draw(st.floats(min_value=0.0, max_value=1e-2)),
        jitter=draw(st.floats(min_value=0.0, max_value=0.99)),
    )


faults = st.builds(
    FaultSpec, drop=_prob, duplicate=_prob, reorder=_prob, corrupt=_prob,
    seed=st.integers(0, 1 << 30), congestion_bytes=st.integers(0, 1 << 24),
    congestion_drop=_prob,
)
transports = st.builds(
    TransportConfig,
    compression=st.sampled_from(["none", "zlib", "adaptive"]),
    chunk_bytes=_count, max_inflight=st.integers(1, 256), retry=retries(),
    faults=faults, pipelined=st.booleans(),
)


@st.composite
def flow_bounds(draw):
    lo, chunk = draw(st.integers(1, 64)), draw(st.integers(1, 1 << 16))
    return FlowBounds(
        min_credits=lo, max_credits=lo + draw(st.integers(0, 64)),
        min_chunk=chunk, max_chunk=chunk + draw(st.integers(0, 1 << 18)),
    )


@st.composite
def controls(draw):
    return ControlConfig(
        seed=draw(st.integers(0, 1 << 30)), interval=draw(st.integers(1, 64)),
        codec=draw(st.booleans()), flow=draw(st.booleans()), quota=draw(st.booleans()),
        repartition=draw(st.booleans()),
        flow_bounds=draw(flow_bounds()),
    )


@st.composite
def pipelines(draw, name):
    return PipelineSpec(
        name=name, mesh=draw(st.just("") | _names),
        weight=draw(st.floats(min_value=0.01, max_value=64.0)),
        shard_size=draw(st.integers(1, 8)),
        ranks=draw(st.none() | st.lists(st.integers(0, 31), min_size=1, max_size=4).map(tuple)),
        collective=False, transport=draw(transports),
    )


@st.composite
def services(draw):
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    specs = [draw(pipelines(name)) for name in names]
    if draw(st.booleans()):  # at most one collective tenant is legal
        specs[0] = dataclasses.replace(specs[0], collective=True)
    budget = draw(st.integers(1, 128))
    return ServiceConfig(
        pipelines=tuple(specs), budget=budget,
        min_credits=draw(st.integers(1, budget)),
        skew=draw(st.floats(min_value=1.01, max_value=8.0)),
        cooldown=draw(st.integers(0, 16)), interval=draw(st.integers(1, 64)),
    )


@dataclasses.dataclass(frozen=True)
class Inner:
    depth: int = 1
    label: str | None = None


@dataclasses.dataclass(frozen=True)
class Throwaway:
    """A config nobody told ``repro.trace`` or ``repro.xmlattrs`` about."""

    gain: float = 0.5
    mode: bool = True
    inner: Inner = Inner()
    brand_new_field: tuple[int, ...] | None = None


def _wire(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestHeaderCodec:
    @settings(**SETTINGS)
    @given(config=st.one_of(
        retries(), faults, transports, flow_bounds(), controls(), services(),
        st.text("abc", min_size=1, max_size=3).flatmap(pipelines),
    ))
    def test_every_field_survives_encode_decode_encode(self, config):
        payload = encode_config(config)
        wire = _wire(payload)
        decoded = decode_config(type(config), json.loads(wire))
        assert decoded == config
        assert _wire(encode_config(decoded)) == wire
        # No field is silently left out of the header.
        assert set(payload) == {
            f.name for f in dataclasses.fields(config) if f.init
        }

    def test_declared_type_wins_over_the_value_passed(self):
        spec = PipelineSpec(name="p", weight=8, ranks=[2, 0])
        assert _wire(encode_config(spec)) == _wire(
            encode_config(PipelineSpec(name="p", weight=8.0, ranks=(0, 2)))
        )
        assert encode_config(spec)["weight"] == 8.0

    def test_new_field_round_trips_with_no_edit_under_trace(self):
        config = Throwaway(
            gain=2, mode=False,
            inner=Inner(depth=3, label="x"), brand_new_field=(4, 5),
        )
        payload = json.loads(_wire(encode_config(config)))
        assert payload == {
            "gain": 2.0, "mode": False,
            "inner": {"depth": 3, "label": "x"}, "brand_new_field": [4, 5],
        }
        assert decode_config(Throwaway, payload) == config
        attrs = {"gain": "2", "mode": "off", "brand_new_field": "4,5"}
        assert read_attrs("<t>", attrs, Throwaway) == {
            "gain": 2.0, "mode": False,
            "brand_new_field": (4, 5),
        }
        assert attrs == {}
        with pytest.raises(TraceFormatError) as err:
            decode_config(Throwaway, {"inner": {"depth": 1, "bogus": 2}})
        assert err.value.details["section"] == "Throwaway"

    @pytest.mark.parametrize("switch", ["on", "maybe", 1, None])
    def test_switch_that_is_not_a_json_boolean_is_refused(self, switch):
        """A recorded header's governor switches are JSON booleans; any
        other value is a malformed ``control`` section, not a truthy one."""
        golden = Path(__file__).parent / "golden" / "codec.jsonl"
        header = json.loads(golden.read_text().splitlines()[0])
        assert header["control"]["codec"] is True
        header["control"]["codec"] = switch
        with pytest.raises(TraceFormatError, match="codec: expected bool") as err:
            decode_config(ControlConfig | None, header["control"])
        assert err.value.details["section"] == "control"

    @pytest.mark.parametrize("tp,payload,section", [
        (ControlConfig, {"interval": "2"}, "control"),
        (ControlConfig, {"seed": True}, "control"),
        (FlowBounds, {"max_chunk": 1.5}, "FlowBounds"),
        (TransportConfig, {"compression": 0}, "transport"),
        (TransportConfig, {"faults": {"drop": "0.1"}}, "transport"),
        (PipelineSpec, {"name": "p", "ranks": [0, "1"]}, "pipeline"),
    ])
    def test_scalar_of_the_wrong_json_type_is_refused(self, tp, payload, section):
        with pytest.raises(TraceFormatError, match="expected") as err:
            decode_config(tp, payload)
        assert err.value.details["section"] == section

    def test_int_payload_decodes_into_a_float_field(self):
        assert decode_config(FlowBounds, {"min_credits": 2}).min_credits == 2
        assert decode_config(FaultSpec, {"drop": 0}) == FaultSpec(drop=0.0)


# -- the attribute side ----------------------------------------------------------


def _analysis(attrs: dict[str, str]) -> list:
    """Parse one ``<analysis type="t">`` element carrying ``attrs``."""
    body = " ".join(f'{k}="{v}"' for k, v in attrs.items())
    return parse_xml(f'<sensei><analysis type="t" {body}/></sensei>')


class TestAttributeReader:
    @settings(**SETTINGS)
    @given(config=controls())
    def test_control_element_reads_back_every_field(self, config):
        attrs = {}
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if f.name == "flow_bounds":
                continue
            attrs[f.name] = repr(value)
        flow = {f.name: repr(getattr(config.flow_bounds, f.name))
                for f in dataclasses.fields(FlowBounds)}
        assert ControlConfig.from_xml_attrs(attrs, flow_attrs=flow) == config

    @pytest.mark.parametrize("raw,value", [
        ("1", True), ("true", True), (" Yes ", True), ("ON", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_one_boolean_vocabulary_everywhere(self, raw, value):
        assert parse_bool(raw) is value
        assert getattr(
            ControlConfig.from_xml_attrs({"codec": raw}), "codec"
        ) is value
        assert _analysis({"enabled": raw})[0].enabled is value

    @pytest.mark.parametrize("build,element,attribute", [
        (ControlConfig.from_xml_attrs, "<control>", "no_such_knob"),
        (lambda a: ControlConfig.from_xml_attrs({}, flow_attrs=a), "<flow>", "no_such_knob"),
        # Attributes ``<control>`` once had: an old config fails loudly.
        *((ControlConfig.from_xml_attrs, "<control>", gone) for gone in (
            "enabled", "mode_low", "mode_high", "codec_margin", "overload",
            "repartition_skew", "repartition_cooldown", "pool_growth",
            "pool_watermark_kib",
        )),
    ])
    def test_unknown_attribute_names_element_and_attribute(self, build, element, attribute):
        with pytest.raises(ConfigError) as err:
            build({attribute: "1"})
        assert element in str(err.value) and attribute in str(err.value)

    @pytest.mark.parametrize("build,element,attribute", [
        (ControlConfig.from_xml_attrs, "<control>", "interval"),
        (ControlConfig.from_xml_attrs, "<control>", "seed"),
        (lambda a: ControlConfig.from_xml_attrs({}, flow_attrs=a), "<flow>", "max_chunk"),
        (_analysis, "<analysis type='t'>", "stride"),
    ])
    def test_bad_number_names_element_and_attribute(self, build, element, attribute):
        with pytest.raises(ConfigError) as err:
            build({attribute: "many"})
        assert element in str(err.value) and repr(attribute) in str(err.value)
        assert "'many'" in str(err.value)

    def test_bad_boolean_names_element_and_attribute(self):
        with pytest.raises(ConfigError) as err:
            _analysis({"enabled": "maybe"})
        assert "<analysis type='t'>" in str(err.value)
        assert "'enabled'" in str(err.value) and "boolean" in str(err.value)

    def test_bad_governor_setting_names_element_and_attribute(self):
        with pytest.raises(
            ConfigError,
            match="<control>: attribute 'codec' must be a boolean, got 'maybe'",
        ):
            ControlConfig.from_xml_attrs({"codec": "maybe"})
