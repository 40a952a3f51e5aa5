"""Ghost-region exchange and shard handoff over the reliable channel.

The :class:`HaloExchanger` moves a :class:`DistributedArray`'s ghost
rows between owner ranks at step boundaries — and, on a repartition,
ships whole shards to their new owners.  Both travel through the
reliable flows of a :class:`~repro.transport.flows.FlowTable`, so halo
and handoff traffic is codec-compressed, cost-charged, credit-windowed,
and fault-tolerant exactly like the in-transit data path.

Deadlock freedom comes from scheduling, not threading: every rank
walks the *globally sorted* list of directed edges and plays its role
(send or receive) when an edge names it.  At any moment the smallest
unfinished edge has both endpoints ready for it — its sender sends and
its receiver serves — so by induction the whole schedule drains.  The
exchange plan itself is a pure function of the partition, computed
identically on every rank: no negotiation traffic, and the planned
byte counts double as the deterministic halo-skew signal the
repartition governor consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ArrayError
from repro.svtk.table import TableData
from repro.transport.flows import FlowTable, array_tags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.array.array import DistributedArray
    from repro.array.partition import ArrayPartition
    from repro.mpi.comm import Communicator
    from repro.transport.config import TransportConfig

__all__ = ["halo_plan", "halo_bytes_by_rank", "HaloExchanger"]


def halo_plan(
    partition: "ArrayPartition", halo: int
) -> dict[tuple[int, int], list[tuple[int, str, int, int]]]:
    """The exchange plan: ``(src, dst) -> [(block, side, lo, hi), ...]``.

    For every block's left ("L") and right ("R") ghost region, the
    covered global rows are split into maximal spans with a single
    owner; each span becomes one entry under its ``(owner, dst)`` edge.
    Entries whose owner *is* the destination (rank-local ghost fills)
    appear under the diagonal ``(r, r)`` edge and never touch the wire.
    A pure function of ``(partition, halo)``, so every rank computes
    the identical plan — and the identical payload layout — with no
    negotiation.
    """
    plan: dict[tuple[int, int], list[tuple[int, str, int, int]]] = {}
    if halo <= 0:
        return plan
    for b in range(partition.nblocks):
        dst = partition.owners[b]
        start, stop = partition.block_span(b)
        regions = (
            ("L", max(0, start - halo), start),
            ("R", stop, min(partition.length, stop + halo)),
        )
        for side, glo, ghi in regions:
            g = glo
            while g < ghi:
                src = partition.owner_of(g)
                h = g + 1
                while h < ghi and partition.owner_of(h) == src:
                    h += 1
                plan.setdefault((src, dst), []).append((b, side, g, h))
                g = h
    return plan


def halo_bytes_by_rank(
    partition: "ArrayPartition", halo: int, itemsize: int
) -> list[int]:
    """Per-rank wire-crossing halo bytes (sent + received) per exchange.

    The deterministic traffic signal the repartition governor watches:
    derived from the plan, not from measurements, so every rank (and
    every rerun) sees identical numbers.
    """
    out = [0] * partition.ranks
    for (src, dst), entries in halo_plan(partition, halo).items():
        if src == dst:
            continue
        nbytes = sum((hi - lo) * itemsize for _b, _s, lo, hi in entries)
        out[src] += nbytes
        out[dst] += nbytes
    return out


class HaloExchanger:
    """Step-boundary collective moving ghost rows (and migrating shards).

    One exchanger per array per run, each under its own ``name``: the
    name picks the exchanger's tags (:func:`~repro.transport.flows.array_tags`),
    so several arrays exchange over one communicator without reading
    each other's frames.  Reliable flows to each peer are created
    lazily on first use and reused across steps.  Close with
    :meth:`close` (a collective) to drain every flow's fin handshake.
    """

    def __init__(
        self,
        comm: "Communicator",
        config: "TransportConfig | None" = None,
        name: str = "halo",
    ):
        self.comm = comm
        self.config = config
        self.name = str(name)
        self.flows = FlowTable(comm, "array", self.name, array_tags(self.name))
        self._rounds: dict[tuple[int, str], int] = {}
        self._edges: set[tuple[int, int, str]] = set()
        self._cache: _Schedule | None = None
        self.exchanges = 0
        self.handoffs = 0
        self.halo_bytes_moved = 0
        self.handoff_bytes_moved = 0
        self._closed = False

    # -- flow management --------------------------------------------------------
    def _next_round(self, peer: int, kind: str) -> int:
        key = (peer, kind)
        self._rounds[key] = self._rounds.get(key, 0) + 1
        return self._rounds[key]

    # -- compiled schedule ------------------------------------------------------
    def _schedule(self, array: "DistributedArray") -> "_Schedule":
        """This rank's share of the plan, compiled to shard views once per
        ``(array, partition)`` (``repartition`` installs a new partition
        object).  A closed array is recompiled, so its freed buffers raise
        :class:`~repro.errors.AllocationError` instead of being written."""
        cached = self._cache
        if (
            cached is not None and cached.array is array
            and cached.partition is array.partition and not array._closed
        ):
            return cached
        self._cache = _Schedule(array, self.comm.rank)
        return self._cache

    def planned_halo_bytes(self, array: "DistributedArray") -> int:
        """This rank's entry of :func:`halo_bytes_by_rank`, from the cache."""
        return self._schedule(array).wire_bytes

    # -- halo exchange ----------------------------------------------------------
    def exchange(self, array: "DistributedArray", step: int) -> int:
        """Collective: refresh every ghost row from its owner.

        Every rank calls with the same ``step``; rank-local ghost fills
        are plain copies, remote ones ride the reliable flows in the
        globally sorted edge order.  Returns the wire bytes this rank
        sent for the exchange (raw payload, pre-codec).
        """
        if self._closed:
            raise ArrayError("halo exchanger already closed")
        schedule = self._schedule(array)
        rank = self.comm.rank
        for ghost, source in schedule.local:
            ghost[:] = source
        sent = 0
        for src, dst, views in schedule.edges:
            if rank == src:
                payload = np.concatenate(views)
                table = TableData(f"{self.name}.halo")
                table.add_host_column("halo", payload)
                self.flows.sender("halo", dst, self.config).send_step(
                    self._next_round(dst, "halo"), float(step), table
                )
                sent += payload.nbytes
            else:
                flow = self.flows.receiver("halo", src, self.config)
                result = flow.receive_step()
                if result is None:
                    raise ArrayError(
                        f"halo flow from rank {src} drained mid-run",
                        details={"rank": rank, "source": src, "step": step},
                    )
                _round, _t, columns = result
                values = np.asarray(columns["halo"], dtype=array.dtype)
                offset = 0
                for view in views:
                    view[:] = values[offset:offset + len(view)]
                    offset += len(view)
            self._edges.add((src, dst, "halo"))
        self.exchanges += 1
        self.halo_bytes_moved += sent
        return sent

    # -- shard handoff ----------------------------------------------------------
    def handoff(
        self,
        array: "DistributedArray",
        moves: list[tuple[int, int, int]],
        event: int,
    ) -> dict[int, np.ndarray]:
        """Collective: ship moved blocks ``(block, src, dst)`` to new owners.

        All blocks moving between one ``(src, dst)`` pair travel as one
        step payload (one ``b{block}`` column each) on the handoff tag
        pair.  Returns ``{block: interior_values}`` for the blocks this
        rank receives.
        """
        if self._closed:
            raise ArrayError("halo exchanger already closed")
        rank = self.comm.rank
        pairs: dict[tuple[int, int], list[int]] = {}
        for b, src, dst in moves:
            pairs.setdefault((src, dst), []).append(b)
        arrived: dict[int, np.ndarray] = {}
        for src, dst in sorted(pairs):
            blocks = sorted(pairs[(src, dst)])
            if rank == src:
                table = TableData(f"{self.name}.move")
                nbytes = 0
                for b in blocks:
                    values = array.shards[b].interior.copy()
                    table.add_host_column(f"b{b}", values)
                    nbytes += values.nbytes
                self.flows.sender("move", dst, self.config).send_step(
                    self._next_round(dst, "move"), float(event), table
                )
                self._edges.add((src, dst, "move"))
                self.handoff_bytes_moved += nbytes
            elif rank == dst:
                flow = self.flows.receiver("move", src, self.config)
                result = flow.receive_step()
                if result is None:
                    raise ArrayError(
                        f"handoff flow from rank {src} drained mid-run",
                        details={"rank": rank, "source": src, "event": event},
                    )
                _round, _t, columns = result
                for b in blocks:
                    arrived[b] = np.asarray(
                        columns[f"b{b}"], dtype=array.dtype
                    )
                self._edges.add((src, dst, "move"))
        self.handoffs += 1
        return arrived

    # -- drain ------------------------------------------------------------------
    def close(self) -> None:
        """Collective: drain every flow's fin handshake, in edge order.

        Every rank walks its recorded edges (a subsequence of the same
        global order) closing senders and serving receivers, so the
        smallest undrained edge always has both endpoints ready — the
        same induction that makes :meth:`exchange` deadlock-free.
        """
        if self._closed:
            return
        for src, dst, kind in sorted(self._edges):
            rank = self.comm.rank
            if rank == src:
                self.flows.senders[(kind, dst)].close()
            elif rank == dst:
                receiver = self.flows.receivers[(kind, src)]
                while receiver.receive_step() is not None:
                    pass
        self.flows.release()
        self._closed = True


class _Schedule:
    """One rank's exchange for one ``(array, partition)``: ``local``
    ``(ghost, interior)`` view pairs, and ``edges`` — its remote edges in
    global order as ``(src, dst, views)``, the interior views a payload
    concatenates or the ghost views it is split into.  A span over several
    shards (``halo > block_rows``) becomes one view per shard."""

    def __init__(self, array: "DistributedArray", rank: int):
        self.array, self.partition = array, array.partition
        self.local, self.edges, self.wire_bytes = [], [], 0
        plan = halo_plan(array.partition, array.halo)
        for src, dst in sorted(plan):
            entries = plan[(src, dst)]
            if rank == src == dst:
                self.local += [
                    (self._ghost(b, side, glo, ghi), view)
                    for b, side, lo, hi in entries
                    for glo, ghi, view in self._sources(lo, hi)
                ]
            elif rank in (src, dst):
                views = [
                    view for _b, _s, lo, hi in entries
                    for _lo, _hi, view in self._sources(lo, hi)
                ] if rank == src else [self._ghost(*e) for e in entries]
                self.edges.append((src, dst, views))
                self.wire_bytes += sum(map(len, views)) * array.dtype.itemsize

    def _ghost(self, block: int, side: str, lo: int, hi: int) -> np.ndarray:
        shard = self.array.shards[block]
        ghost = shard.left_ghost if side == "L" else shard.right_ghost
        base = shard.start - shard.halo if side == "L" else shard.stop
        return ghost[lo - base:hi - base]

    def _sources(self, lo: int, hi: int) -> list[tuple]:
        """Owned ``(global_lo, global_hi, interior_view)`` over ``[lo, hi)``."""
        rows, pieces = self.partition.block_rows, []
        for b in range(lo // rows, (hi - 1) // rows + 1):
            shard = self.array.shards.get(b)
            if shard is None:
                raise ArrayError(
                    f"rank {self.array.rank} asked to source rows "
                    f"[{lo}, {hi}) but does not own block {b}",
                    details={"rank": self.array.rank, "lo": lo, "hi": hi},
                )
            glo, ghi = max(lo, shard.start), min(hi, shard.stop)
            pieces.append(
                (glo, ghi, shard.interior[glo - shard.start:ghi - shard.start])
            )
        return pieces
