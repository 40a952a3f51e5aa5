"""The :class:`DistributedArray` facade: one global index space, SPMD.

Every rank holds the shards (blocks) the partition assigns it, each
backed by a :class:`repro.hamr.buffer.Buffer` with declared device
placement — device shards come from the stream-ordered pool, so a
repartition's free/alloc churn recycles blocks instead of claiming
fresh device memory.  Global reads are collectives (every rank calls,
every rank gets the dense result); global writes resolve ownership
locally and touch only the caller's shards, so SPMD-identical calls
leave the array consistent without any traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.array.partition import ArrayPartition
from repro.errors import ArrayError
from repro.hamr.allocator import Allocator
from repro.hamr.buffer import Buffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.array.halo import HaloExchanger
    from repro.mpi.comm import Communicator

__all__ = ["Shard", "DistributedArray"]


class Shard:
    """One owned block's storage: interior rows framed by ghost rows.

    The buffer holds ``halo`` ghost rows on each side of the interior;
    :attr:`interior` is the live view of the owned global rows,
    :attr:`left_ghost` / :attr:`right_ghost` the neighbor copies the
    halo exchange refreshes.
    """

    def __init__(
        self,
        block: int,
        start: int,
        stop: int,
        halo: int,
        dtype: np.dtype,
        device_id: int | None,
        name: str,
    ):
        self.block = int(block)
        self.start = int(start)
        self.stop = int(stop)
        self.halo = int(halo)
        self.device_id = device_id
        n = self.stop - self.start
        if device_id is None:
            allocator, dev = Allocator.MALLOC, None
        else:
            # Stream-ordered device allocation: served from (and
            # returned to) the device's memory pool, so repartition
            # churn recycles blocks instead of claiming fresh memory.
            allocator, dev = Allocator.CUDA_ASYNC, int(device_id)
        self.buffer = Buffer.allocate(
            n + 2 * self.halo,
            dtype=dtype,
            allocator=allocator,
            device_id=dev,
            name=f"{name}.b{block}",
        )
        self.buffer.fill(0.0)
        self.buffer.synchronize()

    @property
    def rows(self) -> int:
        return self.stop - self.start

    # These three properties ARE the array plane's sanctioned view
    # layer: every read/write of shard storage routes through them.
    @property
    def interior(self) -> np.ndarray:
        """View of the owned global rows ``[start, stop)``."""
        return self.buffer.data[self.halo:self.halo + self.rows]  # lint: disable=HL001

    @property
    def left_ghost(self) -> np.ndarray:
        """View of global rows ``[start - halo, start)`` (neighbor copy)."""
        return self.buffer.data[:self.halo]  # lint: disable=HL001

    @property
    def right_ghost(self) -> np.ndarray:
        """View of global rows ``[stop, stop + halo)`` (neighbor copy)."""
        return self.buffer.data[self.halo + self.rows:]  # lint: disable=HL001

    @property
    def padded(self) -> np.ndarray:
        """The whole storage: left ghosts, interior, right ghosts —
        contiguous, for windowed stencil sweeps."""
        return self.buffer.data  # lint: disable=HL001

    def free(self) -> None:
        self.buffer.free()


class DistributedArray:
    """A 1-D global-index array distributed over an SPMD communicator.

    All ranks construct it with identical arguments (SPMD style).
    ``arr[i:j]`` is a **collective** dense read — every rank calls,
    every rank receives the assembled slice, charged through the
    communicator's collective cost model.  ``arr[i:j] = values`` is
    owner-local: each rank writes the rows it owns and nothing moves.
    ``reduce`` folds the interiors through an allreduce.
    """

    def __init__(
        self,
        comm: "Communicator",
        partition: ArrayPartition,
        dtype=np.float64,
        halo: int = 0,
        device_id: int | None = None,
        name: str = "array",
    ):
        if partition.ranks != comm.size:
            raise ArrayError(
                f"partition spans {partition.ranks} ranks but the "
                f"communicator has {comm.size}",
                details={"ranks": partition.ranks, "size": comm.size},
            )
        if halo < 0:
            raise ArrayError(f"halo width must be >= 0: {halo}")
        self.comm = comm
        self.partition = partition
        self.dtype = np.dtype(dtype)
        self.halo = int(halo)
        self.device_id = device_id
        self.name = str(name)
        self.shards: dict[int, Shard] = {}
        for b in partition.blocks_of(comm.rank):
            start, stop = partition.block_span(b)
            self.shards[b] = Shard(
                b, start, stop, self.halo, self.dtype, device_id, self.name
            )
        self._closed = False

    @classmethod
    def create(
        cls,
        comm: "Communicator",
        length: int,
        dtype=np.float64,
        partitioner: str = "block",
        block_rows: int | None = None,
        halo: int = 0,
        device_id: int | None = None,
        name: str = "array",
    ) -> "DistributedArray":
        """Build the partition and the array in one SPMD call."""
        partition = ArrayPartition(
            length, comm.size,
            partitioner=partitioner,
            block_rows=block_rows,
        )
        return cls(
            comm, partition, dtype=dtype, halo=halo,
            device_id=device_id, name=name,
        )

    # -- geometry ---------------------------------------------------------------
    @property
    def length(self) -> int:
        return self.partition.length

    @property
    def rank(self) -> int:
        return self.comm.rank

    def local_spans(self) -> Iterator[tuple[int, int, int, np.ndarray]]:
        """Owned ``(block, start, stop, interior_view)`` in global order."""
        for b in sorted(self.shards):
            s = self.shards[b]
            yield b, s.start, s.stop, s.interior

    # -- global indexing --------------------------------------------------------
    def _span(self, key) -> tuple[int, int, bool]:
        length = self.length
        if isinstance(key, (int, np.integer)):
            i = int(key)
            if i < 0:
                i += length
            if not 0 <= i < length:
                raise ArrayError(
                    f"global index {key} outside array of length {length}"
                )
            return i, i + 1, True
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise ArrayError(
                    f"global slices must be unit-stride, got step {key.step}"
                )
            start, stop, _ = key.indices(length)
            return start, max(start, stop), False
        raise ArrayError(
            f"global index must be an int or a slice, got {type(key).__name__}"
        )

    def _local_overlaps(
        self, start: int, stop: int
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Owned ``(global_lo, global_hi, view)`` intersecting the span."""
        for b in sorted(self.shards):
            s = self.shards[b]
            lo = max(start, s.start)
            hi = min(stop, s.stop)
            if lo < hi:
                yield lo, hi, s.interior[lo - s.start:hi - s.start]

    def gather(self, start: int, stop: int) -> np.ndarray:
        """Collective dense read of global rows ``[start, stop)``."""
        parts = [
            (lo, view.copy()) for lo, _hi, view in
            self._local_overlaps(start, stop)
        ]
        out = np.zeros(stop - start, dtype=self.dtype)
        for contribution in self.comm.allgather(parts):
            for lo, values in contribution:
                out[lo - start:lo - start + len(values)] = values
        return out

    def __getitem__(self, key):
        start, stop, scalar = self._span(key)
        values = self.gather(start, stop)
        return self.dtype.type(values[0]) if scalar else values

    def __setitem__(self, key, value) -> None:
        start, stop, _ = self._span(key)
        span = stop - start
        if np.isscalar(value) or getattr(value, "ndim", None) == 0:
            for _lo, _hi, view in self._local_overlaps(start, stop):
                view[:] = value
            return
        values = np.asarray(value, dtype=self.dtype)
        if values.shape != (span,):
            raise ArrayError(
                f"assigning {values.shape} values into a span of {span} rows"
            )
        for lo, hi, view in self._local_overlaps(start, stop):
            view[:] = values[lo - start:hi - start]

    def reduce(self, op: str = "sum") -> float:
        """Collective reduction over every interior row."""
        fold = {"sum": np.sum, "min": np.min, "max": np.max}.get(op)
        if fold is None:
            raise ArrayError(
                f"unknown reduction {op!r}; available: max, min, sum"
            )
        identity = {"sum": 0.0, "min": np.inf, "max": -np.inf}[op]
        parts = [
            float(fold(s.interior)) if s.rows else identity
            for _b, s in sorted(self.shards.items())
        ]
        local = float(fold(parts)) if parts else identity
        return float(self.comm.allreduce(local, op=op))

    # -- repartitioning ---------------------------------------------------------
    def repartition(
        self,
        new_owners: Sequence[int],
        exchanger: "HaloExchanger",
        event: int,
    ) -> int:
        """Collective: adopt a new block assignment, shipping shards.

        Every rank calls with the identical ``new_owners`` (the
        governor's decisions are pure functions of allreduced inputs).
        Moved blocks travel through the exchanger's reliable handoff
        flows — codec-, cost-, and fault-charged like any other
        transport traffic.  Returns this rank's shipped payload bytes.
        """
        target = self.partition.with_owners(new_owners)
        moves = [
            (b, self.partition.owners[b], target.owners[b])
            for b in range(self.partition.nblocks)
            if self.partition.owners[b] != target.owners[b]
        ]
        arrived = exchanger.handoff(self, moves, event)
        shipped = 0
        for b, src, dst in moves:
            if src == self.rank:
                shard = self.shards.pop(b)
                shipped += shard.rows * self.dtype.itemsize
                shard.free()
        for b, values in sorted(arrived.items()):
            start, stop = target.block_span(b)
            shard = Shard(
                b, start, stop, self.halo, self.dtype,
                self.device_id, self.name,
            )
            shard.interior[:] = values
            self.shards[b] = shard
        self.partition = target
        return shipped

    def close(self) -> None:
        """Free every shard buffer (device shards return to the pool)."""
        if self._closed:
            return
        for _b, shard in sorted(self.shards.items()):
            shard.free()
        self._closed = True
