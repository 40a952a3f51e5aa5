"""Structure-of-arrays body container.

Positions, velocities, and masses live in separate contiguous arrays —
the layout device offload wants, and the layout the SENSEI data adaptor
publishes column-by-column with zero copies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

__all__ = ["Bodies"]


class Bodies:
    """``n`` point masses: positions, velocities, masses, and ids."""

    __slots__ = ("x", "y", "z", "vx", "vy", "vz", "mass", "ids")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        vx: np.ndarray,
        vy: np.ndarray,
        vz: np.ndarray,
        mass: np.ndarray,
        ids: np.ndarray | None = None,
    ):
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (x, y, z, vx, vy, vz, mass)]
        n = arrays[0].size
        if any(a.size != n for a in arrays):
            raise SolverError("all body arrays must be equally long")
        self.x, self.y, self.z, self.vx, self.vy, self.vz, self.mass = arrays
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        if self.ids.size != n:
            raise SolverError("ids must match body count")

    @classmethod
    def empty(cls, n: int = 0) -> "Bodies":
        z = np.zeros(int(n))
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), z.copy())

    @property
    def n(self) -> int:
        return self.x.size

    def __len__(self) -> int:
        return self.n

    @property
    def positions(self) -> np.ndarray:
        """``(n, 3)`` position matrix (copy)."""
        return np.column_stack((self.x, self.y, self.z))

    @property
    def velocities(self) -> np.ndarray:
        """``(n, 3)`` velocity matrix (copy)."""
        return np.column_stack((self.vx, self.vy, self.vz))

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def select(self, mask_or_index: np.ndarray) -> "Bodies":
        """A new container holding the selected bodies (copies)."""
        return Bodies(
            self.x[mask_or_index],
            self.y[mask_or_index],
            self.z[mask_or_index],
            self.vx[mask_or_index],
            self.vy[mask_or_index],
            self.vz[mask_or_index],
            self.mass[mask_or_index],
            self.ids[mask_or_index],
        )

    @staticmethod
    def concatenate(parts: list["Bodies"]) -> "Bodies":
        """Merge containers (repartitioning receive side)."""
        parts = [p for p in parts if p is not None and p.n]
        if not parts:
            return Bodies.empty(0)
        return Bodies(
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.y for p in parts]),
            np.concatenate([p.z for p in parts]),
            np.concatenate([p.vx for p in parts]),
            np.concatenate([p.vy for p in parts]),
            np.concatenate([p.vz for p in parts]),
            np.concatenate([p.mass for p in parts]),
            np.concatenate([p.ids for p in parts]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bodies(n={self.n}, total_mass={self.total_mass:.4g})"
