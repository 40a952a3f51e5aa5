"""Run-time XML configuration parsing.

SENSEI selects and configures back-ends at run time from an XML file;
the paper's evaluation drives all 9 binning operator instances this way
(Section 4.3) and exposes the new execution/placement controls as
attributes.  The schema::

    <sensei>
      <transport compression="zlib" chunk_kib="64" max_inflight="8"
                 retries="8" partitioner="block"/>
      <control seed="0" interval="1" codec="on" execution="freeze"
               placement="off" pool="on" flow="on" quota="off"
               repartition="off">
        <flow min_credits="1" max_credits="64"
              min_chunk="4096" max_chunk="262144"/>
      </control>
      <analysis type="data_binning" enabled="1" mesh="bodies"
                axes="x,y" bins="256,256"
                variables="mass:sum,vx:average"
                execution="asynchronous"
                placement="auto" n_use="1" stride="1" offset="3"/>
      <analysis type="histogram" mesh="bodies" array="mass" bins="64"/>
      <analysis type="posthoc_io" mesh="bodies" output_dir="./out"
                frequency="10" format="csv"/>
    </sensei>

At most one ``<transport>`` element configures the in transit data
plane (see :class:`repro.transport.config.TransportConfig`); it is
ignored by purely in situ runs.  At most one ``<control>`` element
configures the adaptive control plane (see
:class:`repro.control.plan.ControlConfig`) — each governor attribute
takes ``on``, ``off``, or ``freeze`` (observe and log, never actuate).
Placement control coordinates across ranks whenever the plane's
communicator has more than one; there is no switch for it.  Without the
element no control plane exists and every knob keeps its static setting.

At most one ``<service>`` element declares the multi-pipeline
in-transit service plane (see
:class:`repro.service.plan.ServiceConfig`): nested ``<pipeline>``
elements name each tenant, with per-tenant transport attributes and
the admission-control knobs (``budget``, ``skew``, ``cooldown``,
``interval``) on ``<service>`` itself::

    <service budget="32" skew="1.5" interval="4">
      <pipeline name="hot" weight="8" shard_size="2" compression="zlib"/>
      <pipeline name="bulk" weight="1" partitioner="cyclic"/>
    </service>

Common attributes (every ``<analysis>``; :class:`AnalysisCommon`):

- ``type`` (required) — back-end registry key;
- ``enabled`` — "1"/"0" (default enabled);
- ``name`` — the instance's name in timings and reports;
- ``execution`` — ``lockstep`` (default) or ``asynchronous``;
- ``frequency`` — run every N-th step (default every step);
- ``placement`` — ``auto`` (default), ``host``, or ``manual``;
- ``device`` — device ordinal for manual placement;
- ``n_use`` / ``stride`` / ``offset`` — Eq. 1 parameters for auto
  placement (``devices_per_node`` is accepted as a spelling of
  ``n_use``).

They are read like every other element's — through
:func:`repro.xmlattrs.read_attrs`, typed by the dataclass field — and
so is each built-in back-end's own set
(:mod:`repro.sensei.configurable`), after which anything left over is
an unknown-attribute :class:`~repro.errors.ConfigError`: a misspelt
``exection=`` cannot silently run lockstep.  A back-end added through
``register_backend`` receives its leftovers raw in
:attr:`AnalysisConfig.attrs`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import PlacementMode
from repro.xmlattrs import read_attrs

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.plan import ControlConfig
    from repro.service.plan import ServiceConfig
    from repro.transport.config import TransportConfig

__all__ = [
    "AnalysisCommon",
    "AnalysisConfig",
    "SenseiConfig",
    "parse_document",
    "parse_xml",
    "parse_file",
]


@dataclass(frozen=True)
class AnalysisCommon:
    """The attributes every ``<analysis>`` takes: the paper's
    execution/placement controls plus the instance name and cadence."""

    name: str = ""
    execution: ExecutionMethod | None = None
    frequency: int | None = None
    placement: PlacementMode | None = None
    device: int | None = None
    n_use: int | None = None
    stride: int = 1
    offset: int = 0


@dataclass(frozen=True)
class AnalysisConfig:
    """One parsed ``<analysis>`` element.

    ``attrs`` holds what the common set did not claim, as raw strings
    for the back-end named by ``type`` to read.
    """

    type: str
    enabled: bool = True
    common: AnalysisCommon = field(default_factory=AnalysisCommon)
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SenseiConfig:
    """A fully parsed ``<sensei>`` document.

    ``transport`` is None when the document has no ``<transport>``
    element — in situ configurations never need one.  ``control`` is
    None when there is no ``<control>`` element, in which case no
    control plane exists and every knob stays at its static setting.
    """

    analyses: tuple[AnalysisConfig, ...] = ()
    transport: "TransportConfig | None" = None
    control: "ControlConfig | None" = None
    service: "ServiceConfig | None" = None


def _parse_plane(elem: ET.Element):
    """Parse a ``<transport>``, ``<control>`` or ``<service>`` element.

    The config classes are imported here, not at module scope: their
    packages import :mod:`repro.sensei`.
    """
    if elem.tag == "transport":
        from repro.transport.config import TransportConfig

        return TransportConfig.from_xml_attrs(elem.attrib)
    if elem.tag == "service":
        from repro.service.plan import ServiceConfig

        return ServiceConfig.from_xml_element(elem)
    from repro.control.plan import ControlConfig

    flows = list(elem)
    for sub in flows:
        if sub.tag != "flow":
            raise ConfigError(
                f"unexpected element <{sub.tag}> inside <control>; "
                "only <flow> is allowed"
            )
    if len(flows) > 1:
        raise ConfigError("at most one <flow> element is allowed")
    return ControlConfig.from_xml_attrs(
        elem.attrib, flow_attrs=dict(flows[0].attrib) if flows else None
    )


def parse_document(text: str) -> SenseiConfig:
    """Parse a SENSEI XML document: analyses plus the optional planes."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"malformed XML: {exc}") from exc
    if root.tag != "sensei":
        raise ConfigError(f"root element must be <sensei>, got <{root.tag}>")
    configs: list[AnalysisConfig] = []
    planes: dict[str, object] = {}  # keyed like SenseiConfig's fields
    for child in root:
        if child.tag in ("transport", "control", "service"):
            if child.tag in planes:
                raise ConfigError(
                    f"at most one <{child.tag}> element is allowed"
                )
            planes[child.tag] = _parse_plane(child)
            continue
        if child.tag != "analysis":
            raise ConfigError(
                f"unexpected element <{child.tag}>; only <analysis>, "
                "<transport>, <control>, and <service> are allowed"
            )
        attrs = dict(child.attrib)
        atype = attrs.pop("type", None)
        if not atype:
            raise ConfigError("<analysis> element missing the 'type' attribute")
        label = f"<analysis type={atype!r}>"
        own = read_attrs(label, attrs, AnalysisConfig)
        common = AnalysisCommon(**read_attrs(
            label, attrs, AnalysisCommon, names={"devices_per_node": "n_use"}
        ))
        configs.append(
            AnalysisConfig(type=atype, common=common, attrs=attrs, **own)
        )
    return SenseiConfig(analyses=tuple(configs), **planes)


def parse_xml(text: str) -> list[AnalysisConfig]:
    """Parse a SENSEI XML document into analysis configs."""
    return list(parse_document(text).analyses)


def parse_file(path: str | Path) -> list[AnalysisConfig]:
    """Parse a SENSEI XML configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_xml(text)
