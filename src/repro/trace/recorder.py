"""Trace recording: tap a live service run into a canonical trace.

The recorder threads through :func:`repro.service.run_service` (its
``recorder=`` parameter) with two touch points per producer rank:

- a :class:`RecordingBridge` proxy wraps the rank's
  :class:`~repro.service.router.ServiceBridge`, capturing each
  ``execute`` (step, simulated publish time, the exact column bytes of
  every published table) and each ``finish_pipeline`` before
  delegating — the *traffic pattern* the replayer feeds back;
- the rank's :class:`~repro.control.plan.ControlPlane` (when one is
  attached) mirrors every decision and step observation into the same
  per-rank stream via :meth:`~repro.control.plan.ControlPlane.attach_recorder`,
  already canonicalized (no clock stamps, no jittery measured args).

Each rank's stream is captured in program order under a per-rank
``seq`` counter; at finalize the per-pipeline wire counters (raw/wire
bytes, retries, chunks, simulated backoff seconds — all pure functions
of the fault seeds since the delivery-verdict retransmit scheduler)
are appended.  :meth:`TraceRecorder.trace` then assembles the
versioned header (name, metadata, topology, serialized configs) plus
the merged streams into a :class:`~repro.trace.format.Trace`.

``publish`` records carry the *absolute* simulated entry time of the
bridge call rather than a gap: the replayer restores cadence with
``clock.wait_for(entry)``, which is exact under floating point where
``advance(entry - prev)`` would not be.
"""

from __future__ import annotations

import threading

from repro.hamr.runtime import current_clock
from repro.svtk.table import TableData
from repro.trace.configs import encode_config
from repro.trace.format import (
    TRACE_VERSION,
    Trace,
    TraceEvent,
    canonical_decision,
    canonical_observation,
    encode_table,
)

__all__ = ["RankSink", "RecordingBridge", "TraceRecorder", "record_service_run"]


class RankSink:
    """One producer rank's event stream, in program order.

    Implements the control plane's recorder protocol
    (``on_decision`` / ``on_observation``) and receives the bridge
    proxy's traffic events; every record is a
    :class:`~repro.trace.format.TraceEvent` stamped with this rank's
    monotone ``seq``.
    """

    def __init__(self, rank: int):
        self.rank = int(rank)
        self.events: list[TraceEvent] = []
        self.counters: list[dict] = []

    def emit(self, kind: str, **body) -> None:
        self.events.append(
            TraceEvent(
                kind=kind,
                rank=self.rank,
                seq=len(self.events),
                body=tuple(sorted(body.items())),
            )
        )

    # -- control-plane recorder protocol ---------------------------------------
    def on_decision(self, decision) -> None:
        self.emit("decision", **canonical_decision(decision))

    def on_observation(self, obs) -> None:
        self.emit("obs", **canonical_observation(obs))

    # -- end-of-run counters ----------------------------------------------------
    def add_counters(self, pipeline: str, metrics: dict) -> None:
        row = {"kind": "counters", "rank": self.rank, "pipeline": pipeline}
        for key in sorted(metrics):
            value = metrics[key]
            row[key] = float(value) if isinstance(value, float) else int(value)
        self.counters.append(row)


class RecordingBridge:
    """A transparent proxy capturing one rank's bridge traffic.

    Everything not intercepted (metrics, control plane, the router)
    passes straight through, so producer code runs unmodified whether
    or not a recorder is attached.
    """

    def __init__(self, inner, sink: RankSink):
        self._inner = inner
        self._sink = sink
        self._counters_taken = False
        plane = getattr(inner, "control_plane", None)
        if plane is not None:
            plane.attach_recorder(sink)

    def execute(self, data) -> bool:
        meshes = {}
        for name in sorted(data.get_mesh_names()):
            mesh = data.get_mesh(name)
            if isinstance(mesh, TableData):
                meshes[name] = encode_table(mesh)
        self._sink.emit(
            "publish",
            step=int(data.time_step),
            sim_time=float(data.time),
            entry=current_clock().now,
            meshes=meshes,
        )
        return self._inner.execute(data)

    def finish_pipeline(self, name: str) -> None:
        self._sink.emit(
            "fin", pipeline=str(name), entry=current_clock().now,
        )
        return self._inner.finish_pipeline(name)

    def inject(self, record: dict) -> None:
        """Re-emit a scripted record into this rank's stream.

        The replayer uses this for events the replay cannot regenerate
        live — workload-side decisions (the workload itself does not
        run under replay); the event lands at
        this rank's current ``seq``, restoring the recorded
        interleaving.
        """
        body = {
            k: v for k, v in record.items()
            if k not in ("kind", "rank", "seq")
        }
        self._sink.emit(record["kind"], **body)

    def finalize(self) -> None:
        try:
            return self._inner.finalize()
        finally:
            if not self._counters_taken and self._inner.router is not None:
                self._counters_taken = True
                for name in self._inner.config.names:
                    self._sink.add_counters(
                        name, self._inner.pipeline_metrics(name)
                    )

    def __getattr__(self, item):
        return getattr(self._inner, item)


class TraceRecorder:
    """Collects every producer rank's stream into one canonical trace.

    Pass one instance as ``run_service(..., recorder=...)`` (or
    through :func:`record_service_run`, which also stamps the header);
    ``bind`` is invoked once per producer thread and is the only
    concurrent entry point, so a single lock over sink registration
    suffices — each rank then writes only its own sink.
    """

    def __init__(self, name: str, meta: dict | None = None):
        self.name = str(name)
        self.meta = dict(meta or {})
        self._sinks: dict[int, RankSink] = {}
        self._lock = threading.Lock()
        self._topology: dict = {}

    def describe(self, config, m: int, n: int, cost=None, control=None) -> None:
        """Record the run configuration the header embeds."""
        self._topology = {
            "m": int(m),
            "n": int(n),
            "service": encode_config(config),
            "cost": encode_config(cost),
            "control": encode_config(control),
        }

    def bind(self, rank: int, bridge):
        """Wrap one producer rank's bridge (run_service's hook)."""
        with self._lock:
            sink = self._sinks.get(rank)
            if sink is None:
                sink = RankSink(rank)
                self._sinks[rank] = sink
        return RecordingBridge(bridge, sink)

    def trace(self) -> Trace:
        """Assemble the canonical trace from every rank's stream."""
        header = {
            "kind": "header",
            "version": TRACE_VERSION,
            "name": self.name,
            "meta": self.meta,
        }
        header.update(self._topology)
        events, counters = [], []
        for rank in sorted(self._sinks):
            sink = self._sinks[rank]
            events.extend(e.to_dict() for e in sink.events)
            counters.extend(sink.counters)
        return Trace(header=header, events=events, counters=counters)


def record_service_run(
    name,
    config,
    producer_main,
    registry=None,
    m: int = 1,
    n: int = 1,
    cost=None,
    control=None,
    load_board=None,
    meta: dict | None = None,
):
    """Run a service and record its canonical trace in one call.

    Same signature surface as :func:`repro.service.run_service` plus a
    trace ``name`` and optional header ``meta`` (seeds, workload
    parameters — anything the reader needs to reproduce the run).
    Returns ``(trace, producer_results, endpoints)``.
    """
    from repro.service.runtime import run_service

    recorder = TraceRecorder(name, meta=meta)
    recorder.describe(config, m, n, cost=cost, control=control)
    producers, endpoints = run_service(
        config,
        producer_main,
        registry,
        m=m,
        n=n,
        cost=cost,
        control=control,
        load_board=load_board,
        recorder=recorder,
    )
    return recorder.trace(), producers, endpoints
