"""M-to-N partitioners: which endpoint serves which producer.

The layout used to hard-code the block mapping (producer ``r`` sends
to endpoint ``r * N // M``).  These partitioners make the
redistribution a per-run choice:

- ``block`` — today's behavior: contiguous producer ranges, so data
  locality between neighbouring ranks is preserved;
- ``cyclic`` — round-robin, which decorrelates endpoint load from any
  spatial gradient in the producer ordering;
- ``weighted`` — greedy longest-processing-time assignment balancing
  the sum of per-producer payload weights (bytes/step) per endpoint;
- ``chain`` — contiguous spans with near-equal weight sums, the 1-D
  chains-on-chains decomposition: balanced like ``weighted`` but
  adjacency-preserving like ``block``, which keeps halo surfaces
  minimal for stencil-style consumers (:mod:`repro.array`).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TransportError

__all__ = [
    "Partitioner",
    "BlockPartitioner",
    "CyclicPartitioner",
    "WeightedPartitioner",
    "ChainPartitioner",
    "available_partitioners",
    "get_partitioner",
]


class Partitioner:
    """Maps producer indices ``[0, m)`` onto endpoint indices ``[0, n)``."""

    name = "abstract"

    def assign(
        self, m: int, n: int, weights: Sequence[float] | None = None
    ) -> list[int]:
        """Endpoint index for every producer; must cover each endpoint."""
        raise NotImplementedError

    def _check(self, m: int, n: int) -> None:
        if m < 1 or n < 1 or n > m:
            raise TransportError(
                f"invalid partition shape m={m}, n={n}",
                details={"m": m, "n": n, "partitioner": self.name},
            )


class BlockPartitioner(Partitioner):
    """Contiguous ranges: producer ``p`` -> ``p * n // m``."""

    name = "block"

    def assign(self, m, n, weights=None):
        self._check(m, n)
        return [p * n // m for p in range(m)]


class CyclicPartitioner(Partitioner):
    """Round-robin: producer ``p`` -> ``p % n``."""

    name = "cyclic"

    def assign(self, m, n, weights=None):
        self._check(m, n)
        return [p % n for p in range(m)]


class WeightedPartitioner(Partitioner):
    """Balance the per-endpoint sum of producer weights (greedy LPT).

    ``weights[p]`` is producer ``p``'s expected payload (bytes per
    step); omitted weights fall back to uniform, which degenerates to
    a fair round-robin-like split.  Ties break toward the lowest
    endpoint index so the assignment is deterministic.
    """

    name = "weighted"

    def assign(self, m, n, weights=None):
        self._check(m, n)
        if weights is None:
            weights = [1.0] * m
        if len(weights) != m:
            raise TransportError(
                f"weighted partitioner needs one weight per producer: "
                f"got {len(weights)} for m={m}",
                details={"m": m, "weights": len(weights)},
            )
        if any(w < 0 for w in weights):
            raise TransportError("producer weights must be non-negative")
        loads = [0.0] * n
        counts = [0] * n
        out = [0] * m
        order = sorted(range(m), key=lambda p: (-float(weights[p]), p))
        for p in order:
            # Least-loaded endpoint; producer count then index break ties
            # so uniform weights still spread producers evenly.
            e = min(range(n), key=lambda i: (loads[i], counts[i], i))
            out[p] = e
            loads[e] += float(weights[p])
            counts[e] += 1
        return out


class ChainPartitioner(Partitioner):
    """Contiguous spans with near-equal weight sums (chains-on-chains).

    The classic 1-D load-balanced decomposition: walk the producers in
    index order and cut where the weight prefix sum crosses each
    endpoint's fair share, keeping every span non-empty.  Uniform (or
    omitted) weights degenerate to the block partitioner's layout;
    skewed weights shift the cut points so each endpoint's *summed*
    weight evens out while spatial adjacency — and therefore minimal
    halo surface for stencil-like consumers — is preserved.
    """

    name = "chain"

    def assign(self, m, n, weights=None):
        self._check(m, n)
        if weights is None:
            weights = [1.0] * m
        if len(weights) != m:
            raise TransportError(
                f"chain partitioner needs one weight per producer: "
                f"got {len(weights)} for m={m}",
                details={"m": m, "weights": len(weights)},
            )
        if any(w < 0 for w in weights):
            raise TransportError("producer weights must be non-negative")
        total = float(sum(weights))
        if total <= 0.0:
            return BlockPartitioner().assign(m, n)
        out = [0] * m
        acc = 0.0
        e = 0
        for p in range(m):
            if e < n - 1 and p > 0 and out[p - 1] == e:
                # Forced cut: the producers left must still cover one
                # endpoint each.  Fair-share cut: the running sum (with
                # half of this producer's weight, so a heavy producer
                # lands on whichever side it overlaps most) crossed
                # this endpoint's boundary.
                forced = (m - p) == (n - e)
                crossed = (
                    acc + float(weights[p]) / 2.0 >= (e + 1) * total / n
                )
                if forced or crossed:
                    e += 1
            out[p] = e
            acc += float(weights[p])
        return out


_PARTITIONERS: dict[str, type[Partitioner]] = {
    cls.name: cls
    for cls in (
        BlockPartitioner, CyclicPartitioner, WeightedPartitioner,
        ChainPartitioner,
    )
}


def available_partitioners() -> tuple[str, ...]:
    return tuple(sorted(_PARTITIONERS))


def get_partitioner(name: str) -> Partitioner:
    try:
        return _PARTITIONERS[name]()
    except KeyError:
        raise TransportError(
            f"unknown partitioner {name!r}; available: "
            f"{', '.join(available_partitioners())}",
            details={"partitioner": name},
        ) from None
