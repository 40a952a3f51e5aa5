"""Domain-decomposition helpers.

Newton++ assigns "a unique spatial subdomain of the simulated volume"
to each MPI rank (paper Section 4.1).  These helpers implement the
solver's decomposition: slab subdomains over a coordinate interval.

The owner maps cut ``m`` items (producers, array blocks) over ``n``
ranks and return the rank of each item, every rank getting at least
one: :func:`block_owners` in contiguous ranges, so neighbouring items
stay together (how the service routes producers to endpoints and an
array's default layout), :func:`cyclic_owners` round-robin (an array's
alternative initial layout).  The weighted re-cut an adaptive array
moves to is the repartition governor's own
(:func:`repro.control.repartition.chain_owners`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MPIError

__all__ = ["slab_bounds", "owner_of", "block_owners", "cyclic_owners"]


def slab_bounds(
    lo: float, hi: float, size: int, rank: int
) -> tuple[float, float]:
    """Rank's slab ``[low, high)`` of the interval ``[lo, hi)``."""
    if size < 1 or not 0 <= rank < size:
        raise MPIError(f"invalid rank/size: {rank}/{size}")
    if not hi > lo:
        raise MPIError(f"empty interval: [{lo}, {hi})")
    width = (hi - lo) / size
    low = lo + rank * width
    high = hi if rank == size - 1 else lo + (rank + 1) * width
    return low, high


def owner_of(x: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    """Owning rank of each coordinate in a slab decomposition.

    Coordinates outside ``[lo, hi)`` are clamped to the boundary ranks,
    matching the solver's treatment of escaping bodies.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1: {size}")
    x = np.asarray(x, dtype=np.float64)
    width = (hi - lo) / size
    idx = np.floor((x - lo) / width).astype(np.int64)
    return np.clip(idx, 0, size - 1)


def _check_shape(m: int, n: int) -> None:
    if m < 1 or n < 1 or n > m:
        raise MPIError(
            f"invalid partition shape m={m}, n={n}",
            details={"m": m, "n": n},
        )


def block_owners(m: int, n: int) -> list[int]:
    """Contiguous ranges: item ``p`` -> ``p * n // m``."""
    _check_shape(m, n)
    return [p * n // m for p in range(m)]


def cyclic_owners(m: int, n: int) -> list[int]:
    """Round-robin: item ``p`` -> ``p % n``."""
    _check_shape(m, n)
    return [p % n for p in range(m)]
