"""The coordination round: the one collective every coordinated
governor (quota/shard admission, array repartition) has its per-rank
signals folded through — by its driver (the service bridge, the array
coordinator), never by the governor."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["coordination_round"]


def coordination_round(
    comm, fields: Mapping[str, Sequence[float]], decide: Callable | None = None
):
    """Sum named per-rank vectors over ``comm``; return them by name.

    Collective: every rank of ``comm`` calls with the same field names
    and lengths on the same round.  The primitive owns the layout —
    fields packed in sorted-name order into one float64 vector — and
    folds it once for the group with
    :meth:`~repro.mpi.comm.Communicator.coordinated_allreduce`, so a
    rank on a different round or declaring a different layout gets a
    structured :class:`~repro.errors.MPIError` instead of mismatched
    sums.  Given ``decide``, returns ``(folded, verdict)``:
    ``decide(folded)`` runs once per round, on the first rank out of
    the rendezvous at the aligned clock every rank would stamp.
    """
    names = sorted(fields)
    parts = [
        np.asarray(fields[name], dtype=np.float64).ravel() for name in names
    ]
    local = np.concatenate(parts) if parts else np.zeros(0)
    cuts = np.cumsum([part.size for part in parts])[:-1]

    def unpack(vector: np.ndarray) -> dict[str, np.ndarray]:
        return dict(zip(names, np.split(vector, cuts)))

    if decide is None:
        return unpack(comm.coordinated_allreduce(local, op="sum"))
    vector, verdict = comm.coordinated_allreduce(
        local, op="sum", decide=lambda v: decide(unpack(v))
    )
    return unpack(vector), verdict
