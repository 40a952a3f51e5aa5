"""A bandwidth-bound 1-D Jacobi heat stencil over a DistributedArray.

The first end-to-end consumer of the array plane: every rank advances
``u_i += alpha * (u_{i-1} - 2 u_i + u_{i+1})`` over its shards each
step, with ghost rows refreshed by the
:class:`~repro.array.halo.HaloExchanger` at the step boundary and
zero Dirichlet boundaries at the global edges (the never-written edge
ghosts stay at their allocation fill).

Compute cost is charged to the simulated clock at ``compute_rate``
rows per second.  An optional *hotspot* — a global index range whose
rows charge ``hotspot_cost`` extra seconds-per-row multiples from step
``hotspot_from`` on — injects load skew **into the cost model only**:
the numerics are untouched, so adaptive repartitioning must produce
bit-identical physics while beating the static layouts on charged
time.  Per-block charges feed the
:class:`~repro.array.coordinate.ArrayCoordinator`, closing the
repartition loop when ``adaptive`` is set.

The workload runs standalone (:meth:`StencilWorkload.run`) or as an
in-transit producer (:func:`stencil_producer` plugs into
``run_in_transit`` / ``run_service``, publishing the owned rows as a
table each step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.coordinate import ArrayWorkload
from repro.errors import ArrayError
from repro.svtk.table import TableData

__all__ = ["StencilConfig", "StencilWorkload", "stencil_producer"]


@dataclass(frozen=True)
class StencilConfig:
    """Everything one stencil run needs (identical on every rank)."""

    length: int = 4096             # global rows
    steps: int = 32
    alpha: float = 0.25            # diffusion number (stable <= 0.5)
    dt: float = 1.0                # simulation seconds per step
    partitioner: str = "block"     # initial layout
    block_rows: int | None = None  # ownership granularity
    device_id: int | None = 0      # base device; rank r lands on
    #: ``(device_id + r) mod n_devices`` (None = host).  Spreading the
    #: ranks keeps per-device pools/streams single-writer, so shard
    #: alloc/free churn costs do not depend on thread arrival order.
    compute_rate: float = 2.0e8    # charged rows per simulated second
    #: Hotspot: global index fraction range [lo, hi) whose rows charge
    #: ``hotspot_cost`` additional row-costs each, from step
    #: ``hotspot_from`` on.  ``hotspot_cost=0`` disables it.
    hotspot: tuple[float, float] = (0.0, 0.25)
    hotspot_cost: float = 0.0
    hotspot_from: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ArrayError(f"alpha must be in (0, 0.5]: {self.alpha}")
        if self.steps < 1:
            raise ArrayError(f"steps must be >= 1: {self.steps}")
        if self.compute_rate <= 0:
            raise ArrayError(
                f"compute_rate must be > 0: {self.compute_rate}"
            )
        lo, hi = self.hotspot
        if not 0.0 <= lo <= hi <= 1.0:
            raise ArrayError(
                f"hotspot must satisfy 0 <= lo <= hi <= 1: ({lo}, {hi})"
            )
        if self.hotspot_cost < 0:
            raise ArrayError(
                f"hotspot_cost must be >= 0: {self.hotspot_cost}"
            )

    @property
    def hotspot_rows(self) -> tuple[int, int]:
        """The hotspot's global row range ``[lo, hi)``."""
        lo, hi = self.hotspot
        return int(lo * self.length), int(hi * self.length)


class StencilWorkload(ArrayWorkload):
    """One rank's view of the stencil run; the array is ``u``."""

    default_name = "stencil"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.u = self.array
        # Deterministic initial condition: one full sine period, zero
        # at both Dirichlet edges.
        length = self.config.length
        x = np.arange(length, dtype=np.float64)
        self.u[:] = np.sin(2.0 * np.pi * x / length)
        self._swept: tuple = (None,)

    def _block_cost(self, start: int, stop: int, live: bool) -> float:
        """Charged seconds for one block's update (``live``: hotspot on)."""
        cfg = self.config
        rows = stop - start
        cost = rows / cfg.compute_rate
        if cfg.hotspot_cost > 0.0 and live:
            hlo, hhi = cfg.hotspot_rows
            hot = max(0, min(stop, hhi) - max(start, hlo))
            cost += hot * cfg.hotspot_cost / cfg.compute_rate
        return cost

    def _sweep(self) -> tuple[list, list, list]:
        """Per owned block, in block order: the ``(left, mid, right)``
        views and the ``(block, seconds)`` charges with the hotspot off
        and on — rebuilt only when a repartition installs a new
        partition."""
        u = self.u
        if self._swept[0] is not u.partition:
            shards = sorted(u.shards.items())
            self._swept = (
                u.partition,
                [(s.padded[:s.rows], s.padded[1:-1], s.padded[2:])
                 for _b, s in shards],
                [(b, self._block_cost(s.start, s.stop, False))
                 for b, s in shards],
                [(b, self._block_cost(s.start, s.stop, True))
                 for b, s in shards],
            )
        return self._swept[1:]

    def _advance(self, step: int) -> list[tuple[int, float]]:
        """One Jacobi sweep over the owned blocks."""
        cfg = self.config
        views, cold, hot = self._sweep()
        for left, mid, right in views:
            mid[:] = mid + cfg.alpha * (left - 2.0 * mid + right)
        return hot if step >= cfg.hotspot_from else cold

    def _checksums(self) -> dict:
        return {"checksum": self.u.reduce("sum"), "peak": self.u.reduce("max")}

    def table(self) -> TableData:
        """The owned rows as a table (``index`` + ``u`` columns)."""
        indices, values = [], []
        for _b, start, stop, interior in self.u.local_spans():
            indices.append(np.arange(start, stop, dtype=np.int64))
            values.append(np.asarray(interior, dtype=np.float64).copy())
        table = TableData(self.name)
        table.add_host_column(
            "index",
            np.concatenate(indices) if indices
            else np.zeros(0, dtype=np.int64),
        )
        table.add_host_column(
            "u",
            np.concatenate(values) if values
            else np.zeros(0, dtype=np.float64),
        )
        return table


#: A ``producer_main`` factory for ``run_in_transit`` / ``run_service``
#: (see :meth:`ArrayWorkload.producer`; the mesh defaults to "stencil").
stencil_producer = StencilWorkload.producer
