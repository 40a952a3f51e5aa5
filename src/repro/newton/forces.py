"""All-pairs softened gravity (direct summation).

Newton++ is a *direct* n-body code: every local body interacts with
every body in the system.  One pair loop, tiled over the sources,
serves forces and energy, per coordinate on contiguous ``n_t x tile``
arrays (the bodies' SoA layout) cut from one block per call, as fresh
temporaries page-fault.  G = 1; :func:`pair_flops` charges ~20 FLOPs a pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

__all__ = [
    "accelerations",
    "potential_energy",
    "kinetic_energy",
    "total_energy",
    "pair_flops",
]

#: FLOPs per pairwise gravitational interaction (dx,dy,dz, r2, rinv3, 3 acc).
FLOPS_PER_PAIR = 20.0


def pair_flops(n_targets: int, n_sources: int) -> float:
    """Simulated-cost FLOP count of one acceleration evaluation."""
    return FLOPS_PER_PAIR * float(n_targets) * float(n_sources)


def _pair_tiles(targets_pos, sources_pos, softening, tile):
    """Per source tile: (start, d, softened r2, scratch), n_t x tile views of
    one coordinate-major block allocated once; d[k] is target -> source."""
    n_s = sources_pos.shape[0]
    block = np.empty((5, targets_pos.shape[0], min(tile, n_s)))
    for start in range(0, n_s, tile):
        s = sources_pos[start : start + tile].T
        view = block[:, :, : s.shape[1]]
        d, r2, scratch = view[:3], view[3], view[4]
        np.subtract(s[:, None, :], targets_pos.T[:, :, None], out=d)
        np.einsum("kij,kij->ij", d, d, out=r2)
        r2 += softening * softening
        yield start, d, r2, scratch


def accelerations(
    targets_pos: np.ndarray,
    sources_pos: np.ndarray,
    sources_mass: np.ndarray,
    softening: float = 1e-3,
    tile: int = 2048,
) -> np.ndarray:
    """Gravitational acceleration on each target from all sources.

    Parameters
    ----------
    targets_pos:
        ``(n_t, 3)`` positions receiving force.
    sources_pos, sources_mass:
        ``(n_s, 3)`` positions and ``(n_s,)`` masses exerting force.
        Self-interaction (distance 0) contributes nothing: the softened
        kernel stays finite and a true self-pair has ``d == 0``.
    softening:
        Plummer softening length; must be positive (it is also what
        silences the self-interaction singularity).
    tile:
        Source-tile width bounding each temporary to ``n_t x tile``.
    """
    if softening <= 0:
        raise SolverError(f"softening must be positive: {softening}")
    if tile < 1:
        raise SolverError(f"tile must be >= 1: {tile}")
    targets_pos = np.asarray(targets_pos, dtype=np.float64)
    sources_pos = np.asarray(sources_pos, dtype=np.float64)
    sources_mass = np.asarray(sources_mass, dtype=np.float64)
    if targets_pos.ndim != 2 or targets_pos.shape[1] != 3:
        raise SolverError(f"targets_pos must be (n, 3), got {targets_pos.shape}")
    if sources_pos.shape != (sources_mass.size, 3):
        raise SolverError("sources_pos/sources_mass shape mismatch")

    acc = np.zeros((targets_pos.shape[0], 3))
    for start, d, r2, w in _pair_tiles(targets_pos, sources_pos, softening, tile):
        # w = m / (r2 sqrt(r2)): no fractional power.
        np.multiply(r2, np.sqrt(r2, out=w), out=w)
        np.divide(sources_mass[None, start : start + tile], w, out=w)
        for k in range(3):
            acc[:, k] += np.einsum("ij,ij->i", w, d[k])
    return acc


def potential_energy(
    pos: np.ndarray, mass: np.ndarray, softening: float = 1e-3, tile: int = 2048
) -> float:
    """Total softened potential energy (each pair counted once)."""
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    total = 0.0
    for start, _, r2, _ in _pair_tiles(pos, pos, softening, tile):
        inv_r = np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
        # Zero the self-pairs: global row start + j is tile column j.
        np.fill_diagonal(inv_r[start:], 0.0)
        total += float(mass @ inv_r @ mass[start : start + tile])
    return -0.5 * total


def kinetic_energy(vel: np.ndarray, mass: np.ndarray) -> float:
    """Total kinetic energy ``sum(m v^2) / 2``."""
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    return 0.5 * float(np.einsum("i,ij,ij->", mass, vel, vel))


def total_energy(
    pos: np.ndarray, vel: np.ndarray, mass: np.ndarray, softening: float = 1e-3
) -> float:
    """Kinetic plus potential energy of the system."""
    return kinetic_energy(vel, mass) + potential_energy(pos, mass, softening)
