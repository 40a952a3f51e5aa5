"""The coordination round: the one collective every coordinated
governor (placement, quota/shard admission, array repartition) has
its per-rank signals folded through — by its driver (the control plane,
the service bridge, the array coordinator), never by the governor."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["coordination_round"]


def coordination_round(
    comm, fields: Mapping[str, Sequence[float]]
) -> dict[str, np.ndarray]:
    """Sum named per-rank vectors over ``comm``; return them by name.

    Collective: every rank of ``comm`` calls with the same field names
    and lengths on the same round.  The primitive owns the layout —
    fields packed in sorted-name order into one float64 vector — and
    folds it with :meth:`~repro.mpi.comm.Communicator.coordinated_allreduce`,
    so a rank on a different round or declaring a different layout gets
    a structured :class:`~repro.errors.MPIError` instead of mismatched
    sums.  A single-rank group has nothing to exchange and gets its own
    contribution back.
    """
    names = sorted(fields)
    parts = [
        np.asarray(fields[name], dtype=np.float64).ravel() for name in names
    ]
    local = np.concatenate(parts) if parts else np.zeros(0)
    if comm.size > 1:
        local = comm.coordinated_allreduce(local, op="sum")
    cuts = np.cumsum([part.size for part in parts])[:-1]
    return dict(zip(names, np.split(local, cuts)))
