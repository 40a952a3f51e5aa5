"""Global-index partitions: blocks of rows mapped onto ranks.

An :class:`ArrayPartition` splits a 1-D global index space into
fixed-size *blocks* (the unit of ownership, migration, and cost
accounting) and assigns blocks to ranks: initially in contiguous
``block`` ranges or round-robin (``cyclic``), later in whatever layout
a repartition installs (the repartition governor's chain re-cut,
:func:`~repro.control.repartition.chain_owners`).  The partition is a pure
value, computed identically on every rank from the same inputs —
ownership questions never need communication.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ArrayError
from repro.mpi.partition import block_owners, cyclic_owners

__all__ = ["ArrayPartition"]

#: The initial layouts ``partitioner=`` names.
_LAYOUTS = {"block": block_owners, "cyclic": cyclic_owners}


class ArrayPartition:
    """Which rank owns which block of global rows.

    ``block_rows`` is the ownership granularity: repartitioning moves
    whole blocks, so more blocks per rank means finer load balancing
    at the price of more halo edges.  The default gives each rank
    about four blocks.  ``partitioner`` names the initial layout
    (``block`` or ``cyclic``); ``owners`` gives one explicitly.
    """

    def __init__(
        self,
        length: int,
        ranks: int,
        partitioner: str = "block",
        block_rows: int | None = None,
        owners: Sequence[int] | None = None,
    ):
        if partitioner not in _LAYOUTS:
            raise ArrayError(
                f"unknown initial layout {partitioner!r}; available: "
                f"{', '.join(sorted(_LAYOUTS))}",
                details={"partitioner": partitioner},
            )
        if length < 1:
            raise ArrayError(f"array length must be >= 1: {length}")
        if ranks < 1:
            raise ArrayError(f"ranks must be >= 1: {ranks}")
        if block_rows is None:
            block_rows = max(1, -(-length // (4 * ranks)))
        if block_rows < 1:
            raise ArrayError(f"block_rows must be >= 1: {block_rows}")
        nblocks = -(-length // block_rows)  # ceil division
        if nblocks < ranks:
            raise ArrayError(
                f"partition needs at least one block per rank: "
                f"{nblocks} blocks of {block_rows} rows over {ranks} ranks",
                details={
                    "length": length, "ranks": ranks,
                    "block_rows": block_rows, "nblocks": nblocks,
                },
            )
        self.length = int(length)
        self.ranks = int(ranks)
        self.block_rows = int(block_rows)
        self.nblocks = int(nblocks)
        self.partitioner = str(partitioner)
        if owners is None:
            owners = _LAYOUTS[partitioner](nblocks, ranks)
        owners = tuple(int(o) for o in owners)
        if len(owners) != nblocks:
            raise ArrayError(
                f"need one owner per block: got {len(owners)} "
                f"for {nblocks} blocks"
            )
        bad = sorted({o for o in owners if not 0 <= o < ranks})
        if bad:
            raise ArrayError(
                f"block owners {bad} outside rank range [0, {ranks})"
            )
        self.owners = owners

    # -- ownership --------------------------------------------------------------
    def block_span(self, block: int) -> tuple[int, int]:
        """Global ``[start, stop)`` row range of ``block``."""
        if not 0 <= block < self.nblocks:
            raise ArrayError(
                f"block {block} outside [0, {self.nblocks})"
            )
        start = block * self.block_rows
        return start, min(self.length, start + self.block_rows)

    def block_of(self, index: int) -> int:
        """The block holding global row ``index``."""
        if not 0 <= index < self.length:
            raise ArrayError(
                f"global index {index} outside [0, {self.length})"
            )
        return index // self.block_rows

    def owner_of(self, index: int) -> int:
        """The rank owning global row ``index``."""
        return self.owners[self.block_of(index)]

    def blocks_of(self, rank: int) -> tuple[int, ...]:
        """The blocks owned by ``rank``, in global order."""
        if not 0 <= rank < self.ranks:
            raise ArrayError(f"rank {rank} outside [0, {self.ranks})")
        return tuple(
            b for b in range(self.nblocks) if self.owners[b] == rank
        )

    # -- derivation -------------------------------------------------------------
    def with_owners(self, owners: Sequence[int]) -> "ArrayPartition":
        """The same geometry under a new block-to-rank assignment."""
        return ArrayPartition(
            self.length, self.ranks,
            partitioner=self.partitioner,
            block_rows=self.block_rows,
            owners=owners,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayPartition)
            and self.length == other.length
            and self.ranks == other.ranks
            and self.block_rows == other.block_rows
            and self.owners == other.owners
        )

    def __hash__(self) -> int:
        return hash((self.length, self.ranks, self.block_rows, self.owners))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayPartition(length={self.length}, ranks={self.ranks}, "
            f"block_rows={self.block_rows}, owners={self.owners})"
        )
