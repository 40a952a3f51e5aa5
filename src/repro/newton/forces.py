"""All-pairs softened gravity (direct summation).

Newton++ is a *direct* n-body code: every local body interacts with
every body in the system.  One pair loop serves forces and energy,
blocked over source tiles and :data:`ROWS` target rows so that its one
``(5, ROWS, tile)`` scratch block per call stays in a core's L2 cache.
The source tile alone sets a target's summation order: row blocking
leaves forces bit-identical.  G = 1; :func:`pair_flops` charges ~20 FLOPs a pair.
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

#: Target rows per block: at the in situ width (512 sources) a
#: ``(5, ROWS, tile)`` float64 block is 640 KiB, inside a core's 2 MiB L2.
ROWS = 32


def pair_flops(n_targets: int, n_sources: int) -> float:
    """Simulated-cost FLOP count of one acceleration evaluation."""
    return FLOPS_PER_PAIR * float(n_targets) * float(n_sources)


def _pair_blocks(targets_pos, sources_pos, sources_mass, softening, tile):
    """Check the inputs (:class:`SolverError`), then per target row block and
    source tile yield (rows, start, masses, d, softened r2, scratch): ``rows x
    tile`` views of one block allocated per call, d[k] target -> source."""
    if not softening > 0:
        raise SolverError(f"softening must be positive: {softening}")
    if tile < 1:
        raise SolverError(f"tile must be >= 1: {tile}")
    t, s, m = (np.asarray(a, dtype=np.float64) for a in (targets_pos, sources_pos, sources_mass))
    for name, p in (("targets_pos", t), ("sources_pos", s)):
        if p.ndim != 2 or p.shape[1] != 3:
            raise SolverError(f"{name} must be (n, 3), got {p.shape}")
    if m.shape != s.shape[:1]:
        raise SolverError(f"sources_mass {m.shape} does not match sources_pos {s.shape}")
    s = np.ascontiguousarray(s.T)
    block = np.empty((5, min(ROWS, len(t)), min(tile, s.shape[1])))
    for r0 in range(0, len(t), ROWS):
        col = t[r0 : r0 + ROWS].T[:, :, None]
        for start in range(0, s.shape[1], tile):
            row = s[:, None, start : start + tile]
            view = block[:, : col.shape[1], : row.shape[2]]
            d, r2, scratch = view[:3], view[3], view[4]
            np.copyto(d, row)
            d -= col
            np.einsum("kij,kij->ij", d, d, out=r2)
            r2 += softening * softening
            yield slice(r0, r0 + ROWS), start, m[start : start + tile], d, r2, scratch


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
        Source-tile width; it alone sets each target's summation order.
    """
    blocks = _pair_blocks(targets_pos, sources_pos, sources_mass, softening, tile)
    acc = np.zeros(np.shape(targets_pos))  # (n_t, 3): the first block checks it
    for rows, _, m, d, r2, w in blocks:
        # w = m / (r2 sqrt(r2)): no fractional power.
        np.multiply(r2, np.sqrt(r2, out=w), out=w)
        np.divide(m[None], w, out=w)
        acc[rows] += np.einsum("ij,kij->ik", w, d)
    return acc


def potential_energy(
    pos: np.ndarray, mass: np.ndarray, softening: float = 1e-3, tile: int = 2048
) -> float:
    """Total softened potential energy (each pair counted once)."""
    mass = np.asarray(mass, dtype=np.float64)
    total = 0.0
    for rows, start, m, _, r2, _ in _pair_blocks(pos, pos, mass, softening, tile):
        inv_r = np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
        # Zero the self-pairs: body i is row i - r0, column i - start.
        r0, (n_r, n_c) = rows.start, inv_r.shape
        i = np.arange(max(r0, start), min(r0 + n_r, start + n_c))
        inv_r[i - r0, i - start] = 0.0
        total += float(mass[rows] @ inv_r @ m)
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
