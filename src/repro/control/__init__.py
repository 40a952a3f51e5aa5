"""repro.control — the adaptive runtime control plane.

The paper exposes its execution-model knobs — lockstep vs.
asynchronous execution, the Eq. 1 placement parameters, the transport
codec — as static, user-supplied configuration.  This package closes
the loop: per-step observations (solver time, in situ busy time,
transfer bytes/time, compression ratio, device load) feed controller
primitives (EWMA estimators, hysteresis bands), which drive
*governors* that retune the knobs online through narrow actuator
hooks:

- :class:`~repro.control.governors.CodecGovernor` — picks the wire
  codec per endpoint from the observed compression ratio and the
  measured link bandwidth (``ReliableSender.set_codec``);
- :class:`~repro.control.governors.ExecutionModeGovernor` — switches
  lockstep ↔ asynchronous when the measured in situ / solver time
  ratio crosses a hysteresis band, accounting for the deep copy's
  apparent cost (``AnalysisAdaptor.set_execution_method``);
- :class:`~repro.control.governors.PlacementGovernor` — starts from
  Eq. 1 and rebalances ``n_use``/``offset`` when the device-load
  signal shows overload (``AnalysisAdaptor.set_placement``);
- :class:`~repro.control.governors.PoolTrimGovernor` — trims
  stream-ordered memory pools above a high watermark
  (``MemoryPool.trim_above``);
- :class:`~repro.control.governors.FlowGovernor` — AIMD flow control
  over a reliable sender's credit window and chunk size from the ACK
  round-trip EWMA and retry rate (``ReliableSender.set_window`` /
  ``set_chunk_bytes``); with node coordination its retry/latency
  signals piggyback on the placement allreduce so every rank converges
  on the same window;
- :class:`~repro.control.cluster.ClusterPlacementGovernor` — the
  cross-rank variant of placement control: device-load vectors are
  allreduced over the plane's communicator each coordination round, so
  all ranks apply one node-consistent Eq. 1 re-aim on the same step
  and neighbor ranks crowding onto one device are detected
  (``<control coordination="node">``);
- :class:`~repro.control.quota.QuotaGovernor` /
  :class:`~repro.control.quota.ShardGovernor` — per-tenant admission
  control for the service plane (:mod:`repro.service`): weighted-fair
  endpoint credit budgets with AIMD reclaim of idle quota, and
  skew-triggered migration of a pipeline's endpoint assignment, both
  driven by demand vectors allreduced over the producer group
  (``<control quota="on">``);
- :class:`~repro.control.repartition.RepartitionGovernor` — distributed
  -array load balancing (:mod:`repro.array`): re-cuts block ownership
  with the ``chain`` partitioner when allreduced per-rank busy time or
  halo traffic skews past a threshold, actuating the array's
  collective shard handoff (``<control repartition="on">``).

A :class:`~repro.control.plan.ControlPlane` owns the governors, the
signal ring buffer, and the decision log; every decision is also
exported as a Chrome-trace *instant* event so it is visible on the
same timeline as the work it re-routed.  Configuration comes from the
``<control>`` XML element (:class:`~repro.control.plan.ControlConfig`)
with per-governor enable/freeze.  With no control plane attached,
behavior is bit-identical to the static configuration.
"""

from repro.control.cluster import ClusterPlacementGovernor
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
from repro.control.plan import ControlConfig, ControlPlane, GovernorSetting
from repro.control.policy import EWMA, Hysteresis
from repro.control.quota import QuotaGovernor, ShardGovernor
from repro.control.repartition import RepartitionGovernor
from repro.control.signals import SignalBuffer, StepObservation

__all__ = [
    "ClusterPlacementGovernor",
    "CodecGovernor",
    "ControlConfig",
    "ControlPlane",
    "Decision",
    "EWMA",
    "ExecutionModeGovernor",
    "FlowBounds",
    "FlowGovernor",
    "Governor",
    "GovernorSetting",
    "Hysteresis",
    "PlacementGovernor",
    "PoolTrimGovernor",
    "QuotaGovernor",
    "RepartitionGovernor",
    "ShardGovernor",
    "SignalBuffer",
    "StepObservation",
]
