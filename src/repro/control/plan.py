"""The control plane: configuration, wiring, taps, and the decision log.

:class:`ControlPlane` is the one object harness code touches.  It owns
the signal ring buffer, the governors, and the decision log; bridges
and senders that have a plane *attached* call its ``observe_*`` taps
once per step, and the plane turns those measurements into governor
decisions on the configured cadence.  Nothing here runs unless a plane
is attached — with no control plane, behavior is bit-identical to the
static configuration.

Configuration is the ``<control>`` element::

    <sensei>
      <control enabled="1" seed="0" interval="1" window="64"
               codec="on" execution="freeze" placement="off" pool="on"
               flow="on" coordination="node" coordination_interval="4"
               mode_low="0.05" mode_high="0.15" codec_margin="1.05"
               overload="1.3" pool_watermark_kib="1024">
        <flow min_credits="1" max_credits="64"
              min_chunk="4096" max_chunk="262144"/>
      </control>
      ...
    </sensei>

Each governor attribute takes ``on`` (closed loop), ``freeze``
(observe and log decisions but never actuate — a dry run), or ``off``
(not even created).  ``flow`` defaults to **off** — the transport
flow-control governor is opt-in, so static ``max_inflight`` /
``chunk_bytes`` configurations behave exactly as before; the nested
``<flow>`` element bounds its actuation range (chunk bounds in bytes,
stepped on power-of-two rungs).

``coordination="node"`` replaces the per-rank placement governor with
the allreduce-coordinated
:class:`~repro.control.cluster.ClusterPlacementGovernor`: device-load
rounds every ``interval * coordination_interval`` steps are collective
over the plane's communicator, so every rank applies the same Eq. 1
re-aim on the same step (and crowding — several ranks resolved onto
one device while another idles — is detected and logged).  A plane
coordinating needs its communicator: pass ``comm=`` at construction,
call :meth:`ControlPlane.attach_comm`, or let ``wire_bridge`` pick it
up from the bridge.  The ``placement`` setting still gates the
mechanism (``freeze`` dry-runs coordination, ``off`` disables it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.control.governors import (
    CodecGovernor,
    Decision,
    ExecutionModeGovernor,
    FlowBounds,
    FlowGovernor,
    Governor,
    PlacementGovernor,
    PoolTrimGovernor,
)
from repro.control.signals import SignalBuffer, StepObservation
from repro.errors import ConfigError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hamr.runtime import current_clock
from repro.svtk.table import TableData
from repro.transport.wire import SERIALIZE_BANDWIDTH
from repro.units import KiB
from repro.xmlattrs import parse_bool, read_attrs, reject_unknown

__all__ = [
    "GovernorSetting",
    "ControlConfig",
    "ControlPlane",
    "payload_nbytes",
    "estimate_deep_copy_time",
]


@dataclass(frozen=True)
class GovernorSetting:
    """Per-governor switch: on (closed loop), freeze (dry run), off."""

    enabled: bool = True
    frozen: bool = False

    @classmethod
    def parse(cls, raw: str) -> "GovernorSetting":
        if str(raw).strip().lower() in ("freeze", "frozen", "observe"):
            return cls(enabled=True, frozen=True)
        try:
            return cls(enabled=parse_bool(raw), frozen=False)
        except ValueError:
            raise ConfigError(
                f"governor setting must be on/off/freeze, got {raw!r}"
            ) from None

    @property
    def value(self) -> str:
        if not self.enabled:
            return "off"
        return "freeze" if self.frozen else "on"


_ON = GovernorSetting(True, False)
_OFF = GovernorSetting(False, False)


@dataclass(frozen=True)
class ControlConfig:
    """Parsed ``<control>`` element (all attributes optional)."""

    enabled: bool = True
    seed: int = 0
    interval: int = 1          # decide every N observed steps
    window: int = 64           # signal ring-buffer capacity
    codec: GovernorSetting = field(default_factory=lambda: _ON)
    execution: GovernorSetting = field(default_factory=lambda: _ON)
    placement: GovernorSetting = field(default_factory=lambda: _ON)
    pool: GovernorSetting = field(default_factory=lambda: _ON)
    flow: GovernorSetting = field(default_factory=lambda: _OFF)
    #: Service-plane admission control (per-tenant endpoint quotas plus
    #: shard rebalancing).  Off by default: only ``run_service`` runs
    #: coordination rounds, and only when this is enabled.
    quota: GovernorSetting = field(default_factory=lambda: _OFF)
    #: Distributed-array load balancing: the repartition governor
    #: re-cuts block ownership when per-rank busy time or halo traffic
    #: skews (:mod:`repro.array`).  Off by default — only an
    #: :class:`~repro.array.coordinate.ArrayCoordinator` runs its
    #: rounds, and only when this is enabled.
    repartition: GovernorSetting = field(default_factory=lambda: _OFF)
    repartition_skew: float = 1.25   # rank busy/halo skew (x mean)
    repartition_cooldown: int = 2    # rounds to settle after a re-cut
    #: Let the pool governor *raise* its watermark under trim/refill
    #: churn (and decay it back when quiet) instead of only trimming.
    pool_growth: bool = False
    flow_bounds: FlowBounds = field(default_factory=FlowBounds)
    mode_low: float = 0.05     # hysteresis band on (insitu-copy)/sim
    mode_high: float = 0.15
    codec_margin: float = 1.05  # predicted-cost ratio needed to switch
    overload: float = 1.30     # placement rebalance threshold (x mean)
    pool_watermark_kib: float | None = None
    coordination: str = "off"  # "node": cross-rank placement rounds
    coordination_interval: int = 1  # rounds every N-th decision interval

    def __post_init__(self):
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1: {self.interval}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1: {self.window}")
        if self.coordination not in ("off", "node"):
            raise ConfigError(
                f"coordination must be 'node' or 'off': {self.coordination!r}"
            )
        if self.coordination_interval < 1:
            raise ConfigError(
                f"coordination_interval must be >= 1: "
                f"{self.coordination_interval}"
            )
        if self.mode_low > self.mode_high:
            raise ConfigError(
                f"need mode_low <= mode_high: "
                f"{self.mode_low} > {self.mode_high}"
            )
        if self.codec_margin < 1.0:
            raise ConfigError(
                f"codec_margin must be >= 1: {self.codec_margin}"
            )
        if self.overload < 1.0:
            raise ConfigError(f"overload must be >= 1: {self.overload}")
        if self.repartition_skew <= 1.0:
            raise ConfigError(
                f"repartition_skew must be > 1: {self.repartition_skew}"
            )
        if self.repartition_cooldown < 0:
            raise ConfigError(
                f"repartition_cooldown must be >= 0: "
                f"{self.repartition_cooldown}"
            )
        if self.pool_watermark_kib is not None and self.pool_watermark_kib < 0:
            raise ConfigError(
                f"pool_watermark_kib must be >= 0: {self.pool_watermark_kib}"
            )

    @classmethod
    def from_xml_attrs(
        cls,
        attrs: Mapping[str, str],
        flow_attrs: Mapping[str, str] | None = None,
    ) -> "ControlConfig":
        """Build a config from a ``<control>`` element's attributes.

        ``flow_attrs`` carries the nested ``<flow>`` element's
        attributes (``min_credits``/``max_credits`` in credits,
        ``min_chunk``/``max_chunk`` in bytes), bounding the flow
        governor's actuation range.
        """
        attrs = dict(attrs)
        own = read_attrs("<control>", attrs, cls)
        reject_unknown("<control>", attrs)
        if "coordination" in own:
            own["coordination"] = own["coordination"].strip().lower()
        flow_attrs = dict(flow_attrs) if flow_attrs else {}
        try:
            bounds = FlowBounds(**read_attrs("<flow>", flow_attrs, FlowBounds))
        except ValueError as exc:
            raise ConfigError(f"<flow>: {exc}") from None
        reject_unknown("<flow>", flow_attrs)
        return cls(flow_bounds=bounds, **own)


def _tables(data) -> list[TableData]:
    """Every table the data adaptor currently publishes."""
    meshes = (data.get_mesh(name) for name in data.get_mesh_names())
    return [mesh for mesh in meshes if isinstance(mesh, TableData)]


def payload_nbytes(data) -> int:
    """Raw bytes of every table the data adaptor currently publishes."""
    return sum(table.nbytes for table in _tables(data))


def estimate_deep_copy_time(data) -> float:
    """Analytic estimate of ``deep_copy_table``'s apparent cost.

    Used by the execution-mode governor before the first asynchronous
    step has *measured* the copy; per-column same-space transfers at
    the modeled memory bandwidth, matching what the copier would
    charge.
    """
    from repro.hamr.copier import transfer_duration

    total = 0.0
    for table in _tables(data):
        for col in table.items().values():
            device = getattr(col, "device_id", HOST_DEVICE_ID)
            total += transfer_duration(col.nbytes, device, device)
    return total


class ControlPlane:
    """Owns the governors, the signal buffer, and the decision log.

    One plane serves one rank's bridge and/or transport endpoints.
    Attach with :meth:`repro.sensei.bridge.Bridge.attach_control` /
    :meth:`repro.service.router.ServiceBridge.attach_control`; the
    taps wire governors lazily on first observation, so attachment
    order does not matter.

    ``comm`` is this rank's communicator over the ranks that
    coordinate (``coordination="node"``); the taps carry it to the
    cluster governor.  Left None, ``wire_bridge`` adopts the bridge's
    communicator on first observation.
    """

    def __init__(
        self, config: ControlConfig | None = None, comm=None
    ):
        self.config = config if config is not None else ControlConfig()
        self.signals = SignalBuffer(self.config.window)
        self.decisions: list[Decision] = []
        self.governors: list[Governor] = []
        self._comm = comm
        self._mode_governor: ExecutionModeGovernor | None = None
        self._placement_governor: PlacementGovernor | None = None
        self._cluster_governor = None  # ClusterPlacementGovernor | None
        self._codec_governors: dict[int, CodecGovernor] = {}
        self._pool_governors: dict[int, PoolTrimGovernor] = {}
        self._flow_governors: dict[int, FlowGovernor] = {}
        # Per-tap bookkeeping for delta extraction.
        self._bridge_prev_end: float | None = None
        self._bridge_insitu_total = 0.0
        self._sender_marks: dict[int, tuple] = {}
        self._recorder = None

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def coordinating(self) -> bool:
        """True when cross-rank placement rounds are configured."""
        return (
            self.enabled
            and self.config.coordination == "node"
            and self.config.placement.enabled
        )

    def attach_comm(self, comm) -> None:
        """Bind the communicator coordination rounds run over.

        Must happen before the cluster governor is wired (i.e. before
        the first bridge/load observation); once rounds have started
        the communicator cannot change under them.
        """
        if self._cluster_governor is not None and comm is not self._comm:
            raise ConfigError(
                "cannot change the coordination communicator after the "
                "cluster governor is wired"
            )
        self._comm = comm

    def attach_recorder(self, recorder) -> None:
        """Mirror the plane's traffic into a trace recorder sink.

        ``recorder`` needs ``on_decision(decision)`` and
        ``on_observation(observation, origin)`` callables — the
        :class:`repro.trace.recorder.RankSink` protocol.  Every
        decision the plane logs (its own governors' plus the
        externally-driven ones handed to :meth:`record`) and every
        step observation pushed through the taps is forwarded as it
        lands, in this rank's program order, so the recorder sees the
        exact stream the determinism contract is made over.  One sink
        per plane; attaching again replaces it.
        """
        self._recorder = recorder

    def _log(self, decision: Decision | None) -> Decision | None:
        if decision is not None:
            self.decisions.append(decision)
            if self._recorder is not None:
                self._recorder.on_decision(decision)
        return decision

    def record(self, decision: Decision | None) -> Decision | None:
        """Log a decision made by an externally-driven governor.

        The service plane's quota/shard governors run their own
        coordination rounds (they need the whole producer group, not
        one sender tap) and hand their decisions here so one plane owns
        the complete log and the Chrome-trace export.
        """
        return self._log(decision)

    def _push(self, obs: StepObservation, origin: str) -> None:
        """Ring-buffer an observation and mirror it to the recorder.

        ``origin`` tells the trace replayer whether the observation is
        regenerated by replaying the transport (``"transport"``) or
        must be re-injected from the script (``"bridge"`` — the in situ
        side does not run under replay).
        """
        self.signals.push(obs)
        if self._recorder is not None:
            self._recorder.on_observation(obs, origin)

    def _due(self, step: int) -> bool:
        return step % self.config.interval == 0

    # -- wiring ------------------------------------------------------------------
    def wire_bridge(self, bridge) -> None:
        """Create the execution-mode and placement governors for a bridge."""
        cfg = self.config
        if cfg.execution.enabled and self._mode_governor is None:
            analyses = bridge.analyses

            def set_mode(method):
                for a in analyses:
                    a.set_execution_method(method)

            initial = (
                analyses[0].execution_method if analyses
                else ExecutionModeGovernor().mode
            )
            self._mode_governor = ExecutionModeGovernor(
                actuator=set_mode,
                low=cfg.mode_low,
                high=cfg.mode_high,
                initial=initial,
                frozen=cfg.execution.frozen,
            )
            self.governors.append(self._mode_governor)
        if cfg.placement.enabled and self._placement_governor is None \
                and self._cluster_governor is None:
            analyses = bridge.analyses

            def set_placement(placement):
                for a in analyses:
                    a.set_placement(placement)

            base = analyses[0].placement if analyses else None
            comm = self._comm or getattr(bridge, "_comm", None)
            if self.coordinating and comm is not None:
                from repro.control.cluster import ClusterPlacementGovernor

                self._cluster_governor = ClusterPlacementGovernor(
                    comm,
                    actuator=set_placement,
                    base=base,
                    overload=cfg.overload,
                    frozen=cfg.placement.frozen,
                )
                self.governors.append(self._cluster_governor)
                for fgov in self._flow_governors.values():
                    self._cluster_governor.attach_flow(fgov)
            else:
                rank = getattr(comm, "rank", 0)
                self._placement_governor = PlacementGovernor(
                    actuator=set_placement,
                    rank=rank,
                    base=base,
                    overload=cfg.overload,
                    frozen=cfg.placement.frozen,
                )
                self.governors.append(self._placement_governor)

    def wire_sender(self, sender) -> CodecGovernor | None:
        """Create (or return) the codec governor for one sender."""
        cfg = self.config
        if not cfg.codec.enabled:
            return None
        gov = self._codec_governors.get(id(sender))
        if gov is None:
            from repro.transport.wire import available_codecs

            gov = CodecGovernor(
                actuator=sender.set_codec,
                codecs=available_codecs(),
                initial=sender.codec.name,
                margin=cfg.codec_margin,
                frozen=cfg.codec.frozen,
            )
            self._codec_governors[id(sender)] = gov
            self.governors.append(gov)
        return gov

    def wire_flow(self, sender) -> FlowGovernor | None:
        """Create (or return) the flow governor for one sender.

        Requires the sender to expose the ``set_window`` /
        ``set_chunk_bytes`` actuation hooks; anything else (a test
        double, a non-reliable sender) is silently not governed.
        """
        cfg = self.config
        if not cfg.flow.enabled:
            return None
        if not hasattr(sender, "set_window") or not hasattr(
            sender, "set_chunk_bytes"
        ):
            return None
        gov = self._flow_governors.get(id(sender))
        if gov is None:
            gov = FlowGovernor(
                window_actuator=sender.set_window,
                chunk_actuator=sender.set_chunk_bytes,
                credits=sender.window.credits,
                chunk_bytes=sender.chunk_bytes,
                bounds=cfg.flow_bounds,
                frozen=cfg.flow.frozen,
            )
            self._flow_governors[id(sender)] = gov
            self.governors.append(gov)
            if self._cluster_governor is not None:
                self._cluster_governor.attach_flow(gov)
        return gov

    def wire_pool(self, pool, watermark_bytes: int | None = None) -> PoolTrimGovernor | None:
        """Create (or return) the trim governor for one memory pool."""
        cfg = self.config
        if not cfg.pool.enabled:
            return None
        if watermark_bytes is None:
            if cfg.pool_watermark_kib is None:
                return None  # no watermark configured: nothing to govern
            watermark_bytes = int(cfg.pool_watermark_kib * KiB)
        gov = self._pool_governors.get(id(pool))
        if gov is None:
            gov = PoolTrimGovernor(
                pool, watermark_bytes, frozen=cfg.pool.frozen,
                adaptive=cfg.pool_growth,
            )
            self._pool_governors[id(pool)] = gov
            self.governors.append(gov)
        return gov

    # -- taps --------------------------------------------------------------------
    def observe_bridge_step(self, bridge, data, t_start: float, apparent: float) -> None:
        """Per-step tap from an in situ bridge's ``execute``.

        ``t_start``/``apparent`` bound the bridge's work on the caller's
        clock; the solver time is the gap since the previous step's
        bridge exit.
        """
        if not self.enabled:
            return
        self.wire_bridge(bridge)
        clock = current_clock()
        step = data.time_step
        sim_time = (
            t_start - self._bridge_prev_end
            if self._bridge_prev_end is not None
            else 0.0
        )
        self._bridge_prev_end = clock.now
        insitu_total = sum(a.insitu_busy_time for a in bridge.analyses)
        insitu = max(0.0, insitu_total - self._bridge_insitu_total)
        self._bridge_insitu_total = insitu_total
        payload = payload_nbytes(data)
        self._push(
            StepObservation(
                step=step,
                t=clock.now,
                sim_time=sim_time,
                insitu_time=insitu,
                apparent_time=apparent,
                payload_bytes=payload,
            ),
            origin="bridge",
        )
        gov = self._mode_governor
        if gov is not None and sim_time > 0:
            copy_est = (
                estimate_deep_copy_time(data) if payload > 0 else None
            )
            gov.observe(
                step, sim_time, insitu, apparent, copy_estimate=copy_est
            )
            if self._due(step):
                self._log(gov.decide(step, t=clock.now))
        if self._placement_governor is not None and self._due(step):
            self._log(self._placement_governor.decide(step, t=clock.now))
        self._decide_pools(step, clock.now)

    def observe_transport_step(self, sender, step: int, apparent: float, table=None) -> None:
        """Per-step tap from an in transit bridge, after ``send_step``.

        Extracts this step's deltas from the sender's cumulative
        :class:`~repro.transport.metrics.TransportMetrics`, backs the
        encode and backoff charges out of the apparent time to estimate
        the pure wire time, and feeds the endpoint's codec governor.
        """
        if not self.enabled:
            return
        gov = self.wire_sender(sender)
        fgov = self.wire_flow(sender)
        clock = current_clock()
        m = sender.metrics
        prev = self._sender_marks.get(
            id(sender), (0, 0, 0, 0.0, 0, 0)
        )
        d_raw = m.raw_bytes - prev[0]
        d_wire = m.wire_bytes - prev[1]
        d_out = m.bytes_out - prev[2]
        d_backoff = m.backoff_time - prev[3]
        d_retries = m.retries - prev[4]
        d_chunks = m.chunks_sent - prev[5]
        self._sender_marks[id(sender)] = (
            m.raw_bytes, m.wire_bytes, m.bytes_out, m.backoff_time,
            m.retries, m.chunks_sent,
        )
        codec = sender.codec
        encode = d_raw / SERIALIZE_BANDWIDTH
        if codec.name != "none":
            encode += codec.compress_time(d_raw)
        transfer_time = max(0.0, apparent - encode - d_backoff)
        ratio = (d_raw / d_wire) if d_raw > 0 and d_wire > 0 else 1.0
        self._push(
            StepObservation(
                step=step,
                t=clock.now,
                apparent_time=apparent,
                payload_bytes=d_raw,
                wire_bytes=d_out,
                transfer_time=transfer_time,
                compression_ratio=ratio,
                retries=d_retries,
                ack_latency=m.ack_latency,
                inflight_peak=m.inflight_peak,
                extras=(("codec", codec.name),),
            ),
            origin="transport",
        )
        if fgov is not None:
            fgov.observe(
                step, m.ack_latency, d_retries, d_chunks, m.inflight_peak
            )
            # Under node coordination, hold actuation until the first
            # allreduce round has delivered node-mean signals: acting
            # on per-rank measurements first would let windows diverge
            # before coordination can make them node-consistent.
            pending_round = (
                self._cluster_governor is not None and not fgov.coordinated
            )
            if self._due(step) and not pending_round:
                self._log(fgov.decide(step, t=clock.now))
        if gov is None:
            return
        sample = None
        if codec.name == "none" and table is not None:
            sample = self._payload_sample(table, gov.probe_bytes)
        gov.observe(step, d_raw, d_out, transfer_time, sample=sample)
        if self._due(step):
            self._log(gov.decide(step, t=clock.now))
        self._decide_pools(step, clock.now)

    def observe_device_loads(
        self,
        step: int,
        loads: Mapping[int, float],
        parties: Mapping[int, int] | None = None,
        self_load: float = 0.0,
        resident_bytes: Mapping[int, int] | None = None,
    ) -> None:
        """Feed per-device busy fractions to the placement governor.

        Harness code (or a benchmark) computes the loads from device
        timeline utilization over its window of interest; the plane
        does not guess at them.  Under ``coordination="node"`` this tap
        is **collective**: every coordinating rank must call it each
        step (``self_load`` is this rank's own contribution to its
        current device; ``resident_bytes`` the per-device pool
        footprint), and on coordination-due steps the cluster
        governor's allreduce round runs here.
        """
        if not self.enabled:
            return
        t = current_clock().now
        if self._cluster_governor is not None:
            self._cluster_governor.observe(
                step,
                loads,
                parties=parties,
                self_load=self_load,
                resident_bytes=resident_bytes,
            )
            if self._coordination_due(step):
                for d in self._cluster_governor.coordinate(step, t=t):
                    self._log(d)
            return
        if self._placement_governor is None:
            return
        self._placement_governor.observe(step, loads, parties=parties)
        if self._due(step):
            self._log(self._placement_governor.decide(step, t=t))

    def _coordination_due(self, step: int) -> bool:
        period = self.config.interval * self.config.coordination_interval
        return step % period == 0

    def _decide_pools(self, step: int, t: float) -> None:
        for gov in self._pool_governors.values():
            if self._due(step):
                self._log(gov.decide(step, t=t))

    @staticmethod
    def _payload_sample(table: TableData, nbytes: int) -> bytes | None:
        """Up to ``nbytes`` of raw column data for the ratio probe."""
        if not isinstance(table, TableData):
            return None
        for name in table.column_names:
            arr = np.asarray(table.column(name).as_numpy_host())
            if arr.size == 0:
                continue
            count = max(1, min(arr.size, nbytes // max(arr.dtype.itemsize, 1)))
            return np.ascontiguousarray(arr[:count]).tobytes()
        return None

    # -- reporting ---------------------------------------------------------------
    def chrome_instant_events(self, time_scale: float = 1e6, pid: int = 0, tid: int = 0) -> list[dict]:
        """Decision log as Chrome-trace instant events.

        Pass as ``extra_events`` to
        :func:`repro.hw.trace.chrome_trace` so every governor decision
        is visible on the same timeline as the work it re-routed.
        """
        from repro.hw.trace import instant_event

        return [
            instant_event(
                f"{d.governor}: {d.action}",
                d.time,
                time_scale=time_scale,
                pid=pid,
                tid=tid,
                category="control",
                args={
                    "step": d.step,
                    "reason": d.reason,
                    "applied": d.applied,
                    **d.args_dict,
                },
            )
            for d in self.decisions
        ]

    def summary(self) -> dict:
        """Decision counts and governor states (reporting aid)."""
        by_governor: dict[str, int] = {}
        for d in self.decisions:
            by_governor[d.governor] = by_governor.get(d.governor, 0) + 1
        return {
            "enabled": self.enabled,
            "observations": self.signals.pushed,
            "decisions": len(self.decisions),
            "by_governor": by_governor,
            "governors": [g.name for g in self.governors],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(governors={[g.name for g in self.governors]}, "
            f"decisions={len(self.decisions)})"
        )
