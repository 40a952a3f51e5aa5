"""ConfigurableAnalysis: XML-driven analysis configuration and dispatch.

The paper's runs configure 9 data-binning operator instances (one per
coordinate system) through SENSEI's XML feature and let SENSEI
orchestrate them sequentially.  :class:`ConfigurableAnalysis`
reproduces that: it parses the XML, builds a
:class:`~repro.sensei.backends.binning.BinningAnalysis` for each enabled
``<analysis type="data_binning">``, applies the common
execution/placement attributes via the base-class control API, and fans
each ``execute`` out to the children in document order.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.binning.strategies import BinningStrategy
from repro.errors import ConfigError
from repro.mpi.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.placement import DevicePlacement, PlacementMode
from repro.sensei.xml_config import AnalysisCommon, AnalysisConfig, parse_xml
from repro.xmlattrs import read_attrs, reject_unknown

__all__ = ["ConfigurableAnalysis"]


@dataclass(frozen=True)
class _DataBinning:
    """``data_binning``'s attributes beyond the common set, typed by
    field.  A field without a default is required."""

    mesh: str
    axes: tuple[str, ...] = ()
    bins: tuple[int, ...] = ()
    low: tuple[float, ...] = ()
    high: tuple[float, ...] = ()
    variables: tuple[str, ...] = ()
    strategy: BinningStrategy | None = None


def _build_data_binning(cfg: AnalysisConfig) -> BinningAnalysis | None:
    """Read :class:`_DataBinning` off the element, reject whatever neither
    it nor the common set names, and build it if enabled (else ``None``)."""
    label, attrs = f"<analysis type={cfg.type!r}>", dict(cfg.attrs)
    own = read_attrs(label, attrs, _DataBinning)
    reject_unknown(label, attrs)
    if not cfg.enabled:
        return None
    for f in fields(_DataBinning):
        if f.default is MISSING and f.name not in own:
            raise ConfigError(f"{label} requires attribute {f.name!r}")
    a = _DataBinning(**own)
    n_axes = len(a.axes)
    if not n_axes:
        raise ConfigError("data_binning requires axes=\"col[,col...]\"")
    bins = a.bins * n_axes if len(a.bins) == 1 else a.bins
    if len(bins) != n_axes:
        raise ConfigError(
            f"data_binning: {n_axes} axes but {len(bins)} bin counts"
        )
    lows = a.low or (None,) * n_axes
    highs = a.high or (None,) * n_axes
    if len(lows) != n_axes or len(highs) != n_axes:
        raise ConfigError("data_binning: low/high must match the axis count")
    axes = [AxisSpec(*spec) for spec in zip(a.axes, bins, lows, highs)]
    requests = []
    for spec in a.variables:
        if ":" not in spec:
            raise ConfigError(
                f"data_binning: variables entries are 'name:op', got {spec!r}"
            )
        var, op = spec.rsplit(":", 1)
        requests.append(BinRequest(ReductionOp.parse(op), var.strip()))
    analysis = BinningAnalysis(a.mesh, axes, requests, name=cfg.common.name)
    if a.strategy is not None:
        analysis.binner.device_strategy = a.strategy
    return analysis


def _apply_common_controls(analysis: AnalysisAdaptor, c: AnalysisCommon) -> None:
    """Apply the paper's execution/placement attributes to a back-end."""
    if c.execution is not None:
        analysis.set_execution_method(c.execution)
    if c.placement is PlacementMode.HOST:
        analysis.set_placement(DevicePlacement.host())
    elif c.placement is PlacementMode.MANUAL:
        if c.device is None:
            raise ConfigError("manual placement requires device=\"N\"")
        analysis.set_device_id(c.device)
    elif c.placement is not None or (c.n_use, c.stride, c.offset) != (None, 1, 0):
        analysis.set_auto_placement(c.n_use, c.stride, c.offset)


class ConfigurableAnalysis(AnalysisAdaptor):
    """An analysis adaptor assembled from a run-time XML configuration."""

    def __init__(self, xml: str | None = None, path: str | Path | None = None):
        super().__init__("configurable")
        if (xml is None) == (path is None):
            raise ConfigError("provide exactly one of xml= or path=")
        if xml is None:
            try:
                xml = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        self.children: list[AnalysisAdaptor] = []
        for cfg in parse_xml(xml):
            if cfg.type != "data_binning":
                raise ConfigError(
                    f"unknown analysis type {cfg.type!r}; data_binning is "
                    f"the only type supported"
                )
            analysis = _build_data_binning(cfg)
            if analysis is None:
                continue
            _apply_common_controls(analysis, cfg.common)
            self.children.append(analysis)

    # ConfigurableAnalysis delegates whole-sale; the acquire/process
    # split of a leaf back-end does not apply.  The control API fans
    # out to the children, so setting it here sets every back-end.
    def set_execution_method(self, method) -> None:
        super().set_execution_method(method)
        for child in self.children:
            child.set_execution_method(method)

    def set_placement(self, placement) -> None:
        super().set_placement(placement)
        for child in self.children:
            child.set_placement(placement)

    def initialize(self, comm: Communicator | None = None) -> None:
        if self._initialized:
            return
        self._comm = comm if comm is not None else self._comm
        for child in self.children:
            child.initialize(comm)
        self._initialized = True

    def execute(self, data: DataAdaptor) -> bool:
        if not self._initialized:
            self.initialize(data.get_comm())
        ok = True
        for child in self.children:
            ok = bool(child.execute(data)) and ok
        return ok

    def finalize(self) -> None:
        if self._finalized:
            return
        for child in self.children:
            child.finalize()
        self._finalized = True

    @property
    def total_actual_time(self) -> float:
        return sum(child.total_actual_time for child in self.children)

    @property
    def total_apparent_time(self) -> float:
        return sum(child.total_apparent_time for child in self.children)

    def acquire(self, data: DataAdaptor, deep: bool):  # pragma: no cover
        raise NotImplementedError("ConfigurableAnalysis delegates to children")

    def process(self, payload, comm, device_id):  # pragma: no cover
        raise NotImplementedError("ConfigurableAnalysis delegates to children")
