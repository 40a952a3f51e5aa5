"""repro.service — the sharded multi-pipeline in-transit service plane.

The classic in-transit mode (:mod:`repro.sensei.intransit`) couples one
simulation to one analysis pipeline over dedicated endpoints.  At
facility scale the endpoints are a *service*: M producer ranks feed
many named pipelines — each with its own analyses and transport
tuning — multiplexed over N shared endpoint ranks.  This
package provides that plane on the simulated substrate:

- :class:`~repro.service.plan.PipelineSpec` /
  :class:`~repro.service.plan.ServiceConfig` — the declarative tenant
  set;
- :class:`~repro.service.plan.PipelineRegistry` — pipeline name to
  analysis-factory binding;
- :class:`~repro.service.router.Router` /
  :class:`~repro.service.router.ServiceBridge` — producer-side fan-out
  with per-pipeline tagged flows, chunk stamping, and per-tenant
  metrics/timelines;
- :class:`~repro.service.runtime.StepMerger` /
  :class:`~repro.service.runtime.ServiceEndpoint` — endpoint-side
  fan-in with elastic, step-indexed membership;
- :class:`~repro.service.plan.ShardMap` plus the quota/shard governors
  in :mod:`repro.control.quota` — per-tenant admission control and
  skew-triggered endpoint rebalancing, coordinated over the producer
  group at step boundaries;
- :func:`~repro.service.runtime.run_service` — the entry point;
  :func:`repro.sensei.intransit.run_in_transit` is now a thin
  one-pipeline wrapper over it.
"""

from repro.service.load import LoadBoard
from repro.service.plan import (
    PipelineRegistry,
    PipelineSpec,
    ServiceConfig,
    ShardMap,
    route_producers,
)
from repro.service.router import Router, ServiceBridge
from repro.service.runtime import ServiceEndpoint, StepMerger, run_service

__all__ = [
    "LoadBoard",
    "PipelineRegistry",
    "PipelineSpec",
    "Router",
    "ServiceBridge",
    "ServiceConfig",
    "ServiceEndpoint",
    "ShardMap",
    "StepMerger",
    "route_producers",
    "run_service",
]
