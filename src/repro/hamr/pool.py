"""Stream-ordered memory pools (``cudaMallocAsync`` semantics).

The asynchronous allocator variants the data model exposes
(``CUDA_ASYNC`` / ``HIP_ASYNC``) are *pool* allocators on real parts:
freed blocks return to a per-device pool instead of the OS/driver, and
subsequent same-size allocations are satisfied from the pool at a
fraction of a fresh allocation's cost.  The trade-off is footprint —
pooled memory still counts against the device (the OOM concern that
motivates zero-copy transfer) for as long as the node lives.

:class:`MemoryPool` reproduces that behaviour on the simulated
substrate with size-bucketed free lists; the buffer layer consults the
pool for asynchronous allocators automatically.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.hw.device import ComputeResource
from repro.units import us

__all__ = ["MemoryPool", "pool_for"]

#: Cost of servicing an allocation from the pool (pointer bump).
POOL_HIT_COST = us(1.0)


class MemoryPool:
    """A size-bucketed free-list pool bound to one compute resource.

    - ``acquire(nbytes)`` → True if served from the pool (no new device
      memory claimed), False if a fresh claim was made on the resource;
    - ``release(nbytes)`` returns a block to the pool: the bytes stay
      claimed on the resource (the footprint the paper worries about).
    """

    def __init__(self, resource: ComputeResource):
        self.resource = resource
        self._buckets: dict[int, int] = defaultdict(int)  # nbytes -> count
        self._pooled_bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by the pool (claimed on the device, not in use)."""
        with self._lock:
            return self._pooled_bytes

    def acquire(self, nbytes: int) -> bool:
        """Obtain a block; returns True on a pool hit.

        A miss claims fresh memory on the resource (which may raise
        :class:`~repro.errors.DeviceOutOfMemoryError` — pools do not
        magically create capacity).
        """
        nbytes = int(nbytes)
        with self._lock:
            if self._buckets.get(nbytes, 0) > 0:
                self._buckets[nbytes] -= 1
                self._pooled_bytes -= nbytes
                self.hits += 1
                return True
        self.resource.claim_memory(nbytes)
        with self._lock:
            self.misses += 1
        return False

    def release(self, nbytes: int) -> None:
        """Return a block to the pool (footprint unchanged)."""
        nbytes = int(nbytes)
        with self._lock:
            self._buckets[nbytes] += 1
            self._pooled_bytes += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryPool({self.resource.name!r}, pooled={self.pooled_bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def pool_for(resource: ComputeResource) -> MemoryPool:
    """The pool bound to ``resource``: made on first use and kept on the
    resource itself, so it lives exactly as long as the node does."""
    pool = resource.pool
    if pool is None:
        with resource.lock:
            if resource.pool is None:
                resource.pool = MemoryPool(resource)
            pool = resource.pool
    return pool
