"""repro.control — the adaptive runtime control plane.

The paper exposes its execution-model knobs as static, user-supplied
configuration, and they stay static here: the execution method and
the Eq. 1 placement are ``<analysis>`` attributes chosen per run.
This package closes the loop on the knobs this reproduction adds
around them — the transport codec and flow window, per-tenant
endpoint budgets, array block ownership: per-step observations
(transfer bytes/time, compression ratio, retries, per-rank load) are
fed to *governors*, which digest them through their own controller
primitives (EWMA estimators, hysteresis bands, a skew gate) and retune
the knobs online through narrow actuator hooks.  All five speak one
protocol — ``observe(<signals>)`` then ``decide(step, t=None) ->
list[Decision]`` — are built from a
:class:`~repro.control.plan.ControlConfig` by
:meth:`ControlPlane.governor <repro.control.plan.ControlPlane.governor>`
and log through :meth:`ControlPlane.log
<repro.control.plan.ControlPlane.log>`.  None holds a communicator:
the three that act on node-wide sums (quota/shard, repartition) are
handed them by the two drivers that call
:func:`~repro.control.rounds.coordination_round` — the service
bridge and the array coordinator:

===========  ===========  ===============================  ===================
governor     switch       decides                          actuator
===========  ===========  ===============================  ===================
codec        codec        wire codec per sender            ``set_codec``
flow         flow         credit window + chunk (AIMD)     ``set_window``, ``set_chunk_bytes``
quota        quota        per-tenant endpoint budgets      ``Router.grant``
shard        quota        migrate a tenant off a hot       ``ShardMap.set_shard``
                          endpoint
repartition  repartition  re-cut array block ownership     ``DistributedArray.repartition``
===========  ===========  ===============================  ===================

Each class's docstring has the detail; ``quota``/``shard`` and
``repartition`` live in :mod:`~repro.control.quota` and
:mod:`~repro.control.repartition`, codec and flow in
:mod:`~repro.control.governors`.

A :class:`~repro.control.plan.ControlPlane` owns the governors and the
decision log; every decision is also mirrored to the trace recorder.
Configuration is a :class:`~repro.control.plan.ControlConfig` with
one on/off ``bool`` per governor, built directly or from a string dict by
:meth:`~repro.control.plan.ControlConfig.from_xml_attrs`.  With no
control plane attached, behavior is bit-identical to the static
configuration.
"""

from repro.control.governors import (
    CodecGovernor,
    Decision,
    FlowBounds,
    FlowGovernor,
    Governor,
)
from repro.control.plan import ControlConfig, ControlPlane
from repro.control.policy import EWMA, Hysteresis, SkewGate
from repro.control.quota import QuotaGovernor, ShardGovernor
from repro.control.repartition import RepartitionGovernor
from repro.control.rounds import coordination_round
from repro.control.signals import StepObservation

__all__ = [
    "CodecGovernor",
    "ControlConfig",
    "ControlPlane",
    "Decision",
    "EWMA",
    "FlowBounds",
    "FlowGovernor",
    "Governor",
    "Hysteresis",
    "QuotaGovernor",
    "RepartitionGovernor",
    "ShardGovernor",
    "SkewGate",
    "StepObservation",
    "coordination_round",
]
