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
        self._plan_cache: tuple["ArrayPartition", int, dict] | None = None
        self.exchanges = 0
        self.handoffs = 0
        self.halo_bytes_moved = 0
        self.handoff_bytes_moved = 0
        self._closed = False

    # -- flow management --------------------------------------------------------
    @property
    def drops_recovered(self) -> int:
        """Chunk losses recovered across this exchanger's send flows."""
        return self.flows.sender_totals()["drops_recovered"]

    def _next_round(self, peer: int, kind: str) -> int:
        key = (peer, kind)
        self._rounds[key] = self._rounds.get(key, 0) + 1
        return self._rounds[key]

    # -- plan -------------------------------------------------------------------
    def _plan(self, array: "DistributedArray") -> dict:
        cached = self._plan_cache
        if (
            cached is not None
            and cached[0] == array.partition
            and cached[1] == array.halo
        ):
            return cached[2]
        plan = halo_plan(array.partition, array.halo)
        self._plan_cache = (array.partition, array.halo, plan)
        return plan

    @staticmethod
    def _read_rows(array: "DistributedArray", lo: int, hi: int) -> np.ndarray:
        """Owned global rows ``[lo, hi)`` (may span several shards)."""
        out = np.empty(hi - lo, dtype=array.dtype)
        filled = 0
        for glo, ghi, view in array._local_overlaps(lo, hi):
            out[glo - lo:ghi - lo] = view
            filled += ghi - glo
        if filled != hi - lo:
            raise ArrayError(
                f"rank {array.rank} asked to source rows [{lo}, {hi}) "
                f"but owns only {filled} of them",
                details={"rank": array.rank, "lo": lo, "hi": hi},
            )
        return out

    @staticmethod
    def _ghost_view(
        array: "DistributedArray", block: int, side: str, lo: int, hi: int
    ) -> np.ndarray:
        shard = array.shards[block]
        ghost = shard.left_ghost if side == "L" else shard.right_ghost
        base = shard.start - shard.halo if side == "L" else shard.stop
        return ghost[lo - base:hi - base]

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
        plan = self._plan(array)
        rank = self.comm.rank
        itemsize = array.dtype.itemsize
        sent = 0
        for src, dst in sorted(plan):
            entries = plan[(src, dst)]
            if src == dst:
                if src == rank:
                    for b, side, lo, hi in entries:
                        view = self._ghost_view(array, b, side, lo, hi)
                        view[:] = self._read_rows(array, lo, hi)
                continue
            if rank == src:
                payload = np.concatenate([
                    self._read_rows(array, lo, hi)
                    for _b, _s, lo, hi in entries
                ])
                table = TableData(f"{self.name}.halo")
                table.add_host_column("halo", payload)
                self.flows.sender("halo", dst, self.config).send_step(
                    self._next_round(dst, "halo"), float(step), table
                )
                self._edges.add((src, dst, "halo"))
                sent += payload.nbytes
            elif rank == dst:
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
                for b, side, lo, hi in entries:
                    n = hi - lo
                    view = self._ghost_view(array, b, side, lo, hi)
                    view[:] = values[offset:offset + n]
                    offset += n
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
