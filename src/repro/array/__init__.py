"""repro.array — the data plane: distributed global arrays.

A :class:`DistributedArray` gives SPMD ranks a single global-index
view (HDArray-style) over per-rank shards held in pooled
:mod:`repro.hamr` buffers, laid out in ``block`` or ``cyclic``
ownership (:class:`ArrayPartition`).  Ghost regions move through
the reliable transport channel (:class:`HaloExchanger`), and the
control plane's :class:`~repro.control.repartition.RepartitionGovernor`
— driven by :class:`ArrayCoordinator` — re-cuts the partition when
per-rank busy time or halo traffic skews.
"""

from repro.array.array import DistributedArray, Shard
from repro.array.coordinate import ArrayCoordinator
from repro.array.halo import HaloExchanger
from repro.array.partition import ArrayPartition
from repro.array.stencil import (
    StencilConfig,
    StencilWorkload,
    stencil_producer,
)

__all__ = [
    "ArrayPartition",
    "DistributedArray",
    "Shard",
    "HaloExchanger",
    "ArrayCoordinator",
    "StencilConfig",
    "StencilWorkload",
    "stencil_producer",
]
