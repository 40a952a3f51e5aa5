"""The control plane: configuration, wiring, taps, and the decision log.

:class:`ControlPlane` is the one object harness code touches.  It owns
the governors and the decision log; bridges and senders that have a
plane *attached* call its ``observe_*`` taps once per step, and the
plane turns those measurements into governor decisions on the
configured cadence.  Nothing here runs unless a plane
is attached — with no control plane, behavior is bit-identical to the
static configuration.

Configuration is a :class:`ControlConfig`, built directly or from
string dicts by :meth:`ControlConfig.from_xml_attrs`::

    ControlConfig.from_xml_attrs(
        {"seed": "0", "interval": "1", "codec": "on",
         "execution": "on", "placement": "off", "pool": "on",
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

Placement has no coordination switch: whether
:meth:`ControlPlane.observe_device_loads` is a collective follows from
the communicator the plane was wired on (``comm=`` at construction,
else the bridge's, adopted by ``wire_bridge``).  Over more than one
rank the placement governor's per-rank fields are folded in one
:func:`~repro.control.rounds.coordination_round` every ``interval``
steps, so every rank applies the same Eq. 1 re-aim on the same step
(and crowding — several ranks resolved onto one device while another
idles — is detected and logged); at one rank there is nothing to fold
and the same governor decides on its own contribution.  The
``placement`` setting gates the mechanism (off builds no governor and
runs no round).
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
from repro.control.rounds import coordination_round
from repro.control.signals import StepObservation
from repro.errors import ConfigError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hamr.runtime import current_clock
from repro.sensei.execution import ExecutionMethod
from repro.svtk.table import TableData
from repro.transport.wire import SERIALIZE_BANDWIDTH, available_codecs
from repro.xmlattrs import read_attrs, reject_unknown

__all__ = [
    "ControlConfig",
    "ControlPlane",
    "payload_nbytes",
    "estimate_deep_copy_time",
]


@dataclass(frozen=True)
class ControlConfig:
    """The control plane's switches and cadence (all optional)."""

    seed: int = 0
    interval: int = 1          # decide (and fold rounds) every N steps
    codec: bool = True
    execution: bool = True
    placement: bool = True
    pool: bool = True
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
        """
        attrs = dict(attrs)
        own = read_attrs("<control>", attrs, cls)
        reject_unknown("<control>", attrs)
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
    """Owns the governors, the coordination round, and the decision log.

    One plane serves one rank's bridge and/or transport endpoints.
    Attach with :meth:`repro.sensei.bridge.Bridge.attach_control` /
    :meth:`repro.service.router.ServiceBridge.attach_control`; the
    taps wire governors lazily on first observation, so attachment
    order does not matter.  Every governor is built by
    :meth:`governor` and every decision is logged by :meth:`decide`.

    ``comm`` is this rank's communicator over the ranks whose
    placement is governed together; left None, ``wire_bridge`` adopts
    the bridge's.  Its size — nothing else — decides whether
    :meth:`observe_device_loads` folds a round or decides on this
    rank's own contribution.
    """

    def __init__(
        self, config: ControlConfig | None = None, comm=None
    ):
        self.config = config if config is not None else ControlConfig()
        self.observations = 0  # step observations the taps have pushed
        self.decisions: list[Decision] = []
        self.governors: list[Governor] = []
        self._comm = comm
        # Set by the first device-load round folded over > 1 rank: from
        # then on flow governors wait for node means before they act.
        self._loads_shared = False
        self._targets: dict[int, _Target] = {}
        # Bridge-tap bookkeeping for delta extraction.
        self._bridge_prev_end: float | None = None
        self._bridge_insitu_total = 0.0
        self._recorder = None

    def attach_recorder(self, recorder) -> None:
        """Mirror the plane's traffic into a trace recorder sink.

        ``recorder`` needs ``on_decision(decision)`` and
        ``on_observation(observation, origin)`` callables — the
        :class:`repro.trace.recorder.RankSink` protocol.  Every
        decision :meth:`decide` logs and every step observation pushed
        through the taps is forwarded as it lands, in this rank's
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
        taps and for the drivers that run their own rounds (the service
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

    def _named(self, name: str) -> list[Governor]:
        return [g for g in self.governors if g.name == name]

    def decide(
        self, governor: Governor, step: int, t: float | None = None
    ) -> list[Decision]:
        """Run one governor's loop and :meth:`log` every decision it made."""
        return self.log(governor.decide(step, t))

    def log(self, decisions: list[Decision]) -> list[Decision]:
        """The single logging path: the taps below and the rounds their
        drivers decide on one rank for a group log here, so one plane owns
        the complete log and the recorder mirror."""
        for decision in decisions:
            self.decisions.append(decision)
            if self._recorder is not None:
                self._recorder.on_decision(decision)
        return decisions

    def _push(self, obs: StepObservation, origin: str) -> None:
        """Count an observation and mirror it to the recorder.

        ``origin`` tells the trace replayer whether the observation is
        regenerated by replaying the transport (``"transport"``) or
        must be re-injected from the script (``"bridge"`` — the in situ
        side does not run under replay).
        """
        self.observations += 1
        if self._recorder is not None:
            self._recorder.on_observation(obs, origin)

    def due(self, step: int) -> bool:
        """Is ``step`` on the decision cadence?  Every driver's
        coordination rounds (this plane's, the service bridge's, the
        array coordinator's) run on it too."""
        return step % self.config.interval == 0

    # -- wiring ------------------------------------------------------------------
    def wire_bridge(self, bridge) -> None:
        """Create the execution-mode and placement governors for a bridge."""
        analyses = bridge.analyses
        first = analyses[0] if analyses else None

        def set_mode(method):
            for a in analyses:
                a.set_execution_method(method)

        def set_placement(placement):
            for a in analyses:
                a.set_placement(placement)

        self.governor(ExecutionModeGovernor, bridge, lambda: dict(
            actuator=set_mode,
            initial=(
                first.execution_method if first else ExecutionMethod.LOCKSTEP
            ),
        ))
        if self._comm is None:
            self._comm = getattr(bridge, "_comm", None)
        self.governor(PlacementGovernor, bridge, lambda: dict(
            actuator=set_placement, rank=getattr(self._comm, "rank", 0),
            base=first.placement if first else None,
        ))

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

    def wire_pool(self, pool, watermark_bytes: int) -> PoolTrimGovernor | None:
        """Create (or return) the trim governor for one memory pool."""
        return self.governor(PoolTrimGovernor, pool, lambda: dict(
            pool=pool, watermark_bytes=watermark_bytes,
        ))

    # -- taps --------------------------------------------------------------------
    def observe_bridge_step(self, bridge, data, t_start: float, apparent: float) -> None:
        """Per-step tap from an in situ bridge's ``execute``.

        ``t_start``/``apparent`` bound the bridge's work on the caller's
        clock; the solver time is the gap since the previous step's
        bridge exit.
        """
        if id(bridge) not in self._targets:
            self.wire_bridge(bridge)
        wired = self._target(bridge).governors
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
        gov = wired.get(ExecutionModeGovernor.name)
        if gov is not None and sim_time > 0:
            copy_est = (
                estimate_deep_copy_time(data) if payload > 0 else None
            )
            gov.observe(
                step, sim_time, insitu, apparent, copy_estimate=copy_est
            )
            if self.due(step):
                self.decide(gov, step, clock.now)
        self._decide_pools(step, clock.now)

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
            ),
            origin="transport",
        )
        if fgov is not None:
            fgov.observe(
                step, m.ack_latency, d_retries, d_chunks, m.inflight_peak
            )
            # Once device loads are folded over several ranks, hold
            # actuation until a round has delivered node-mean signals:
            # acting on per-rank measurements first would let windows
            # diverge before the rounds can make them node-consistent.
            pending_round = self._loads_shared and not fgov.coordinated
            if self.due(step) and not pending_round:
                self.decide(fgov, step, clock.now)
        if gov is None:
            return
        sample = None
        if codec.name == "none" and table is not None:
            sample = self._payload_sample(table, gov.PROBE_BYTES)
        gov.observe(step, d_raw, d_out, transfer_time, sample=sample)
        if self.due(step):
            self.decide(gov, step, clock.now)
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
        does not guess at them.  ``self_load`` is this rank's own
        contribution to its current device, ``resident_bytes`` the
        per-device pool footprint.  The one tap placement is decided
        from, and the one place this plane runs a collective: when its
        communicator has more than one rank **every rank must call it
        each step**, and on due steps the governor's fields — and the
        retry/ACK estimates of the most recently wired flow governor,
        zeros without one — are folded in one
        :func:`~repro.control.rounds.coordination_round`, whose node
        means every flow governor on the plane then acts on.  With no
        communicator, or one rank, nothing is exchanged and the
        governor decides on its own contribution.
        """
        t = current_clock().now
        comm = self._comm
        flows = self._named(FlowGovernor.name)
        for gov in self._named(PlacementGovernor.name):
            gov.observe(
                step, loads, parties=parties, self_load=self_load,
                resident_bytes=resident_bytes,
            )
            if not self.due(step):
                continue
            fields = gov.contribution()
            if comm is not None and comm.size > 1:
                fields.update(
                    flows[-1].contribution() if flows else FlowGovernor.ABSENT
                )
                fields = coordination_round(comm, fields)
                self._loads_shared = True
                ranks = int(round(fields["ranks"][0]))
                # Node-consistent windows: every flow governor on every
                # rank acts on the same node-mean signals from here on.
                for flow in flows:
                    flow.ingest_node(
                        float(fields["retry"][0]) / ranks,
                        float(fields["ack"][0]) / ranks,
                    )
            gov.ingest(fields)
            self.decide(gov, step, t)

    def _decide_pools(self, step: int, t: float) -> None:
        if self.due(step):
            for gov in self._named("pool"):
                self.decide(gov, step, t)

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
