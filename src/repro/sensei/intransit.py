"""In transit execution: analysis on dedicated endpoint ranks.

Beyond on-node placement (the paper's focus), the SENSEI ecosystem also
moves data *off node* to dedicated analysis resources — the M-to-N
in transit mode (the paper's related work compares such strategies, and
its Section 1 lists "data transport" back-ends among SENSEI's
couplings).  This module implements that mode on the simulated
substrate, complementing the on-node placements:

- ``M`` simulation ranks produce data; ``N`` endpoint ranks consume it
  (``N < M`` typically — the whole point is concentrating analysis on
  fewer resources);
- an :class:`InTransitLayout` fixes the M-to-N redistribution:
  contiguous blocks of producers per endpoint, so neighbouring ranks
  share one (:func:`~repro.service.plan.route_producers`);
- the simulation side instruments exactly like the in situ case —
  :func:`run_in_transit` hands each producer a
  :class:`~repro.service.router.ServiceBridge`, which has the
  ``initialize`` / ``execute`` / ``finalize`` surface of
  :class:`repro.sensei.bridge.Bridge`, so a solver switches between
  in situ and in transit without code changes (SENSEI's
  run-time-switchable promise);
- each endpoint (a :class:`~repro.service.runtime.ServiceEndpoint`)
  assembles its producers' tables and runs ordinary analysis back-ends
  against the endpoints' own sub-communicator, so reductions span the
  full dataset.

Data moves over :mod:`repro.transport`: a versioned, checksummed,
chunked wire format with pluggable compression, reliable delivery
(ACKs, dedup, retry with backoff), bounded in-flight credit windows,
and a graceful ``fin``/``fin_ack`` drain instead of a bare shutdown
tag.  Fault injection (drops, duplicates, reordering, corruption) is a
:class:`~repro.transport.config.TransportConfig` knob, so delivery
robustness is testable without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ExecutionError
from repro.mpi.comm import CommCostModel, Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.transport.config import TransportConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.router import ServiceBridge
    from repro.service.runtime import ServiceEndpoint

__all__ = ["InTransitLayout", "run_in_transit"]


@dataclass(frozen=True)
class InTransitLayout:
    """The M-to-N shape of one world of ``m + n`` ranks.

    World ranks ``[0, m)`` are producers (simulation); ``[m, m + n)``
    are endpoints (analysis), each serving a contiguous block of
    producers.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ExecutionError(f"need m >= 1 and n >= 1, got {self.m}/{self.n}")
        if self.n > self.m:
            raise ExecutionError(
                f"more endpoints ({self.n}) than producers ({self.m}) "
                "defeats the purpose of in transit analysis"
            )


def run_in_transit(
    layout: InTransitLayout,
    producer_main: Callable[[Communicator, "ServiceBridge"], object],
    analyses_factory: Callable[[], Sequence[AnalysisAdaptor]],
    mesh_name: str = "bodies",
    transport: TransportConfig | None = None,
    cost: CommCostModel | None = None,
    control=None,
    recorder=None,
) -> tuple[list[object], list["ServiceEndpoint"]]:
    """Launch an M-producer / N-endpoint in transit run.

    ``producer_main(sim_comm, bridge)`` runs on each producer with a
    sub-communicator spanning the producers only, instrumented with a
    :class:`~repro.service.router.ServiceBridge` (call
    ``bridge.execute`` per step; ``finalize`` is invoked automatically
    afterwards).
    ``analyses_factory()`` builds each endpoint's analysis set.
    ``transport`` configures the wire (codec, chunking, retries, fault
    injection); ``cost`` overrides the interconnect cost model.
    ``control`` (a :class:`repro.control.ControlConfig`) attaches a
    fresh control plane to each producer's bridge, enabling adaptive
    codec selection on that producer's link.  ``recorder`` (a
    :class:`repro.trace.TraceRecorder`) captures a deterministic trace
    of the producers' traffic.

    This is :func:`repro.service.run_service` with a single collective
    pipeline: one tenant named ``mesh_name`` sharded over all ``n``
    endpoints, its producers routed in contiguous blocks.  The
    single pipeline occupies tag index 0 (``DATA_TAG``/``ACK_TAG``),
    and admission control stays off unless the control config arms it.

    Returns ``(producer_results, endpoints)``.
    """
    from repro.service.plan import PipelineSpec, ServiceConfig
    from repro.service.runtime import run_service

    spec = PipelineSpec(
        name=mesh_name,
        mesh=mesh_name,
        shard_size=layout.n,
        collective=True,
        transport=transport if transport is not None else TransportConfig(),
    )
    return run_service(
        ServiceConfig(pipelines=(spec,)),
        producer_main,
        {mesh_name: analyses_factory},
        m=layout.m,
        n=layout.n,
        cost=cost,
        control=control,
        recorder=recorder,
    )
