"""The control plane: configuration, wiring, its tap, and the decision log.

:class:`ControlPlane` is the one object harness code touches.  It owns
the governors and the decision log; a service bridge that has a plane
*attached* calls its transport tap once per sender per step, and the
plane turns those measurements into governor decisions on the
configured cadence.  Nothing here runs unless a plane is attached —
with no control plane, behavior is bit-identical to the static
configuration.

Configuration is a :class:`ControlConfig`, built directly or from
string dicts by :meth:`ControlConfig.from_xml_attrs`::

    ControlConfig.from_xml_attrs(
        {"seed": "0", "interval": "1", "codec": "on",
         "flow": "on", "quota": "off", "repartition": "off"},
        flow_attrs={"min_credits": "1", "max_credits": "64",
                    "min_chunk": "4096", "max_chunk": "262144"},
    )

Each governor switch is a ``bool``, read with the boolean vocabulary
of every config element (``on``/``off``, ``true``/``false``, …): on
runs the closed loop, off creates no governor at all.  ``flow``
defaults to **off** — the transport flow-control governor is opt-in,
so static ``max_inflight`` / ``chunk_bytes`` configurations behave
exactly as before; ``flow_bounds``
(:class:`~repro.control.governors.FlowBounds`, the ``flow_attrs``
dict) bounds its actuation range (chunk bounds in bytes, stepped on
power-of-two rungs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.control.governors import (
    CodecGovernor,
    Decision,
    FlowBounds,
    FlowGovernor,
    Governor,
)
from repro.control.signals import StepObservation
from repro.errors import ConfigError
from repro.hamr.runtime import current_clock
from repro.svtk.table import TableData
from repro.transport.wire import SERIALIZE_BANDWIDTH, available_codecs
from repro.xmlattrs import parse_bool, read_attrs, reject_unknown

__all__ = ["ControlConfig", "ControlPlane"]

#: Switches of governors that were deleted.  ``from_xml_attrs`` still
#: accepts each one as off (or absent), so older documents keep
#: parsing; on names the governor that no longer exists.
_RETIRED = ("execution", "placement", "pool")


@dataclass(frozen=True)
class ControlConfig:
    """The control plane's switches and cadence (all optional)."""

    seed: int = 0
    interval: int = 1          # decide (and fold rounds) every N steps
    codec: bool = True
    flow: bool = False
    #: Service-plane admission control (per-tenant endpoint quotas plus
    #: shard rebalancing).  Off by default: only ``run_service`` runs
    #: coordination rounds, and only when this is enabled.
    quota: bool = False
    #: Distributed-array load balancing: the repartition governor
    #: re-cuts block ownership when per-rank busy time or halo traffic
    #: skews (:mod:`repro.array`).  Off by default — only an
    #: :class:`~repro.array.coordinate.ArrayCoordinator` runs its
    #: rounds, and only when this is enabled.
    repartition: bool = False
    flow_bounds: FlowBounds = field(default_factory=FlowBounds)

    def __post_init__(self):
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1: {self.interval}")

    @classmethod
    def from_xml_attrs(
        cls,
        attrs: Mapping[str, str],
        flow_attrs: Mapping[str, str] | None = None,
    ) -> "ControlConfig":
        """Build a config from ``<control>``-style string attributes.

        ``flow_attrs`` carries the ``<flow>`` bounds
        (``min_credits``/``max_credits`` in credits,
        ``min_chunk``/``max_chunk`` in bytes) of the flow governor's
        actuation range.  Errors name ``<control>`` or ``<flow>``.
        ``execution``, ``placement`` and ``pool`` switched governors
        that are gone: each may still be given, but only as off.
        """
        attrs = dict(attrs)
        for name in _RETIRED:
            raw = attrs.pop(name, "off")
            try:
                on = parse_bool(raw)
            except ValueError:
                on = True
            if on:
                raise ConfigError(
                    f"<control>: the {name} governor was removed; "
                    f"attribute {name!r} must be off, got {raw!r}"
                )
        own = read_attrs("<control>", attrs, cls)
        reject_unknown("<control>", attrs)
        flow_attrs = dict(flow_attrs) if flow_attrs else {}
        try:
            bounds = FlowBounds(**read_attrs("<flow>", flow_attrs, FlowBounds))
        except ValueError as exc:
            raise ConfigError(f"<flow>: {exc}") from None
        reject_unknown("<flow>", flow_attrs)
        return cls(flow_bounds=bounds, **own)


@dataclass
class _Target:
    """One wired object and what the plane keeps for it.

    Holding ``obj`` keeps its ``id`` — the key it is filed under —
    from being reused by a later object while the entry lives.
    """

    obj: object
    governors: dict[str, Governor] = field(default_factory=dict)
    #: Cumulative sender counters at the previous transport tap.
    marks: tuple = (0, 0, 0, 0.0, 0, 0)


class ControlPlane:
    """Owns the governors and the decision log.

    One plane serves one rank's transport senders and the drivers that
    run their own rounds.  Attach with
    :meth:`repro.service.router.ServiceBridge.attach_control`; the tap
    wires a sender's governors lazily on its first observation.  Every
    governor is built by :meth:`governor` and every decision is logged
    by :meth:`log`.

    ``comm`` is accepted and ignored: the plane runs no collective.
    """

    def __init__(self, config: ControlConfig | None = None, comm=None):
        self.config = config if config is not None else ControlConfig()
        self.observations = 0  # step observations the tap has pushed
        self.decisions: list[Decision] = []
        self.governors: list[Governor] = []
        self._targets: dict[int, _Target] = {}
        self._recorder = None

    def attach_recorder(self, recorder) -> None:
        """Mirror the plane's traffic into a trace recorder sink.

        ``recorder`` needs ``on_decision(decision)`` and
        ``on_observation(observation)`` callables — the
        :class:`repro.trace.recorder.RankSink` protocol.  Every
        decision :meth:`decide` logs and every step observation pushed
        through the tap is forwarded as it lands, in this rank's
        program order, so the recorder sees the exact stream the
        determinism contract is made over.  One sink per plane;
        attaching again replaces it.
        """
        self._recorder = recorder

    def _target(self, obj) -> _Target:
        state = self._targets.get(id(obj))
        if state is None:
            state = self._targets[id(obj)] = _Target(obj)
        return state

    def governor(self, cls: type[Governor], target, wiring=dict):
        """Build (or return) ``cls``'s governor for ``target``.

        The one place a governor is constructed, for the plane's own
        tap and for the drivers that run their own rounds (the service
        bridge, the array coordinator) alike: ``cls.switch`` names the
        ``ControlConfig`` switch (off means None is returned), and
        ``wiring()`` returns what only the caller knows — the actuator
        and the target's initial state — and is called only when the
        governor is actually built, so a switched-off governor never
        touches its target.  One governor
        per (class, target), registered in :attr:`governors`.
        """
        if not getattr(self.config, cls.switch or cls.name):
            return None
        state = self._target(target)
        gov = state.governors.get(cls.name)
        if gov is None:
            gov = cls(**wiring())
            state.governors[cls.name] = gov
            self.governors.append(gov)
        return gov

    def decide(
        self, governor: Governor, step: int, t: float | None = None
    ) -> list[Decision]:
        """Run one governor's loop and :meth:`log` every decision it made."""
        return self.log(governor.decide(step, t))

    def log(self, decisions: list[Decision]) -> list[Decision]:
        """The single logging path: the tap below and the rounds their
        drivers decide on one rank for a group log here, so one plane owns
        the complete log and the recorder mirror."""
        for decision in decisions:
            self.decisions.append(decision)
            if self._recorder is not None:
                self._recorder.on_decision(decision)
        return decisions

    def _push(self, obs: StepObservation) -> None:
        """Count an observation and mirror it to the recorder."""
        self.observations += 1
        if self._recorder is not None:
            self._recorder.on_observation(obs)

    def due(self, step: int) -> bool:
        """Is ``step`` on the decision cadence?  Every driver's
        coordination rounds (the service bridge's, the array
        coordinator's) run on it too."""
        return step % self.config.interval == 0

    # -- wiring ------------------------------------------------------------------
    def wire_sender(self, sender) -> CodecGovernor | None:
        """Create (or return) the codec governor for one sender."""
        return self.governor(CodecGovernor, sender, lambda: dict(
            actuator=sender.set_codec, codecs=available_codecs(),
            initial=sender.codec.name,
        ))

    def wire_flow(self, sender) -> FlowGovernor | None:
        """Create (or return) the flow governor for one sender.

        Requires the sender to expose the ``set_window`` /
        ``set_chunk_bytes`` actuation hooks; anything else (a test
        double, a non-reliable sender) is silently not governed.
        """
        if not hasattr(sender, "set_window") or not hasattr(
            sender, "set_chunk_bytes"
        ):
            return None
        return self.governor(FlowGovernor, sender, lambda: dict(
            window_actuator=sender.set_window,
            chunk_actuator=sender.set_chunk_bytes,
            credits=sender.window.credits, chunk_bytes=sender.chunk_bytes,
            bounds=self.config.flow_bounds,
        ))

    # -- the tap -----------------------------------------------------------------
    def observe_transport_step(self, sender, step: int, apparent: float, table=None) -> None:
        """Per-step tap from an in transit bridge, after ``send_step``.

        Extracts this step's deltas from the sender's cumulative
        :class:`~repro.transport.metrics.TransportMetrics`, backs the
        encode and backoff charges out of the apparent time to estimate
        the pure wire time, and feeds the endpoint's codec governor.
        """
        state = self._targets.get(id(sender))
        if state is None:
            self.wire_sender(sender)
            self.wire_flow(sender)
            state = self._target(sender)
        gov = state.governors.get(CodecGovernor.name)
        fgov = state.governors.get(FlowGovernor.name)
        clock = current_clock()
        m = sender.metrics
        marks = (
            m.raw_bytes, m.wire_bytes, m.bytes_out, m.backoff_time,
            m.retries, m.chunks_sent,
        )
        d_raw, d_wire, d_out, d_backoff, d_retries, d_chunks = (
            now - before for now, before in zip(marks, state.marks)
        )
        state.marks = marks
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
            )
        )
        if fgov is not None:
            fgov.observe(
                step, m.ack_latency, d_retries, d_chunks, m.inflight_peak
            )
            if self.due(step):
                self.decide(fgov, step, clock.now)
        if gov is None:
            return
        sample = None
        if codec.name == "none" and table is not None:
            sample = self._payload_sample(table, gov.PROBE_BYTES)
        gov.observe(step, d_raw, d_out, transfer_time, sample=sample)
        if self.due(step):
            self.decide(gov, step, clock.now)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(governors={[g.name for g in self.governors]}, "
            f"decisions={len(self.decisions)})"
        )
