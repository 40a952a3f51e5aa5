"""Run-time XML configuration parsing.

SENSEI selects and configures back-ends at run time from an XML file;
the paper's evaluation drives all 9 binning operator instances this way
(Section 4.3) and exposes the new execution/placement controls as
attributes of ``<analysis>``.  The document holds ``<analysis>``
elements only::

    <sensei>
      <analysis type="data_binning" enabled="1" mesh="bodies"
                axes="x,y" bins="256,256"
                variables="mass:sum,vx:average"
                execution="asynchronous"
                placement="auto" n_use="1" stride="1" offset="3"/>
      <analysis type="data_binning" mesh="bodies" axes="vx,vy" bins="64"
                variables="mass:sum" placement="host"/>
    </sensei>

Any other child element is a :class:`~repro.errors.ConfigError`.  The
transport, service and control planes are configured by their
dataclasses (:class:`~repro.transport.config.TransportConfig`,
:class:`~repro.service.plan.ServiceConfig`,
:class:`~repro.control.plan.ControlConfig`), not by this document.

Common attributes (every ``<analysis>``; :class:`AnalysisCommon`):

- ``type`` (required) — the back-end; ``data_binning`` is the only one;
- ``enabled`` — "1"/"0" (default enabled);
- ``name`` — the instance's name in timings and reports;
- ``execution`` — ``lockstep`` (default) or ``asynchronous``;
- ``placement`` — ``auto`` (default), ``host``, or ``manual``;
- ``device`` — device ordinal for manual placement;
- ``n_use`` / ``stride`` / ``offset`` — Eq. 1 parameters for auto
  placement (``devices_per_node`` is accepted as a spelling of
  ``n_use``).

They are read through :func:`repro.xmlattrs.read_attrs`, typed by the
dataclass field, and so is the back-end's own set
(:mod:`repro.sensei.configurable`), after which anything left over is
an unknown-attribute :class:`~repro.errors.ConfigError`: a misspelt
``exection=`` cannot silently run lockstep.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import PlacementMode
from repro.xmlattrs import read_attrs

__all__ = ["AnalysisCommon", "AnalysisConfig", "parse_xml"]


@dataclass(frozen=True)
class AnalysisCommon:
    """The attributes every ``<analysis>`` takes: the paper's
    execution/placement controls plus the instance name."""

    name: str = ""
    execution: ExecutionMethod | None = None
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


def parse_xml(text: str) -> list[AnalysisConfig]:
    """Parse a SENSEI XML document into its ``<analysis>`` configs."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"malformed XML: {exc}") from exc
    if root.tag != "sensei":
        raise ConfigError(f"root element must be <sensei>, got <{root.tag}>")
    configs: list[AnalysisConfig] = []
    for child in root:
        if child.tag != "analysis":
            raise ConfigError(
                f"unexpected element <{child.tag}>; only <analysis> is allowed"
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
    return configs
