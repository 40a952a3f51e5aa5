"""An irregular particle workload with a migrating hotspot.

Structurally the opposite of the regular stencil: work per grid cell
follows the *particles*, and the particles follow a hotspot that
drifts across the (periodic) unit domain at ``hotspot_speed`` per
step.  Load skew therefore migrates — a static partition that was
balanced at step 0 is wrong by step 20 — which is exactly the shape
the adaptive repartitioner must chase rather than fix once.

The particle state is replicated: every rank integrates the identical
seeded system (positions/velocities from ``random.Random(seed)``,
float64 numerics), so no particle exchange is needed and the physics
is bit-identical across ranks and runs by construction.  What is
*distributed* is the density grid — a halo-1
:class:`~repro.array.array.DistributedArray` over ``length`` cells —
and the charged compute cost: each rank pays for the particles in the
cells it owns (hotspot particles cost ``hotspot_strength`` extra),
feeding per-block charges to the
:class:`~repro.array.coordinate.ArrayCoordinator` when ``adaptive``.

Runs standalone (:meth:`ParticleWorkload.run`), as a service producer
(:func:`particle_producer`), and under the array plane — the zoo's
"irregular" entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.array.coordinate import ArrayWorkload
from repro.errors import ArrayError
from repro.svtk.table import TableData

__all__ = ["ParticleConfig", "ParticleWorkload", "particle_producer"]


@dataclass(frozen=True)
class ParticleConfig:
    """Everything one particle run needs (identical on every rank)."""

    n_particles: int = 2048
    length: int = 256              # density grid cells over [0, 1)
    steps: int = 16
    dt: float = 1.0                # simulation seconds per step
    seed: int = 7
    partitioner: str = "block"     # initial grid layout
    block_rows: int | None = None  # ownership granularity
    device_id: int | None = 0      # base device; rank r lands on
    #: ``(device_id + r) mod n_devices`` (None = host).  Spreading the
    #: ranks keeps per-device pools/streams single-writer, which the
    #: trace plane's byte-stable re-recording contract depends on.
    compute_rate: float = 2.0e6    # charged particle-updates per second
    #: Hotspot: a band of half-width ``hotspot_width / 2`` around a
    #: center that starts at ``hotspot_start`` and advances
    #: ``hotspot_speed`` (domain fractions) per step, wrapping.
    #: Particles inside it charge ``hotspot_strength`` extra updates
    #: each, and every particle drifts toward the center at ``drift``.
    hotspot_strength: float = 4.0
    hotspot_width: float = 0.125
    hotspot_speed: float = 0.03
    hotspot_start: float = 0.2
    drift: float = 0.05

    def __post_init__(self):
        if self.n_particles < 1:
            raise ArrayError(f"n_particles must be >= 1: {self.n_particles}")
        if self.steps < 1:
            raise ArrayError(f"steps must be >= 1: {self.steps}")
        if self.compute_rate <= 0:
            raise ArrayError(f"compute_rate must be > 0: {self.compute_rate}")
        if not 0.0 <= self.hotspot_width <= 1.0:
            raise ArrayError(
                f"hotspot_width must be in [0, 1]: {self.hotspot_width}"
            )
        if self.hotspot_strength < 0:
            raise ArrayError(
                f"hotspot_strength must be >= 0: {self.hotspot_strength}"
            )

    def hotspot_center(self, step: int) -> float:
        """The hotspot's center at ``step`` (periodic unit domain)."""
        return (self.hotspot_start + self.hotspot_speed * step) % 1.0


class ParticleWorkload(ArrayWorkload):
    """One rank's view of the particle run; the density grid is
    ``density``."""

    default_name = "particles"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.density = self.array
        # Replicated seeded state: cross-version-stable Python RNG for
        # the draws, float64 numpy for the integration.
        rng = random.Random(self.config.seed)
        n = self.config.n_particles
        self.x = np.array([rng.random() for _ in range(n)], dtype=np.float64)
        self.v = np.array(
            [(rng.random() - 0.5) * 0.02 for _ in range(n)], dtype=np.float64
        )

    def _circular_delta(self, target: float, values: np.ndarray) -> np.ndarray:
        """Shortest signed distance from ``values`` to ``target`` mod 1."""
        return ((target - values + 0.5) % 1.0) - 0.5

    def cells(self) -> np.ndarray:
        """Each particle's density cell index."""
        cfg = self.config
        return np.minimum(
            (self.x * cfg.length).astype(np.int64), cfg.length - 1
        )

    def _advance(self, step: int):
        """Move the particles, then deposit each owned block's counts."""
        cfg = self.config
        center = cfg.hotspot_center(step)
        pull = self._circular_delta(center, self.x)
        self.x = (self.x + (self.v + cfg.drift * pull) * cfg.dt) % 1.0
        cells = self.cells()
        counts = np.bincount(cells, minlength=cfg.length).astype(np.float64)
        # Hotspot cells charge extra per particle.
        centers = (np.arange(cfg.length, dtype=np.float64) + 0.5) / cfg.length
        hot = (
            np.abs(self._circular_delta(center, centers))
            < cfg.hotspot_width / 2.0
        )
        weights = counts * (1.0 + cfg.hotspot_strength * hot)
        for b in sorted(self.density.shards):
            shard = self.density.shards[b]
            shard.interior[:] = counts[shard.start:shard.stop]
            yield b, float(
                weights[shard.start:shard.stop].sum() / cfg.compute_rate
            )

    def _checksums(self) -> dict:
        return {
            "checksum": float(np.sum(self.x)),
            "density_sum": self.density.reduce("sum"),
        }

    def table(self) -> TableData:
        """The particles in this rank's owned cells (``id`` + ``x``)."""
        cells = self.cells()
        owned = np.zeros(cells.shape, dtype=bool)
        for _b, start, stop, _interior in self.density.local_spans():
            owned |= (cells >= start) & (cells < stop)
        ids = np.nonzero(owned)[0].astype(np.int64)
        table = TableData(self.name)
        table.add_host_column("id", ids)
        table.add_host_column("x", self.x[owned].astype(np.float64))
        return table


#: A ``producer_main`` factory for ``run_in_transit`` / ``run_service``
#: (see :meth:`ArrayWorkload.producer`; the mesh defaults to "particles").
particle_producer = ParticleWorkload.producer
