"""Communicators and the SPMD runner.

Design notes
------------
Ranks are threads sharing one process.  A :class:`_World` holds the
shared state of one communicator: per-destination mailboxes for
point-to-point traffic, the open collective round, and the
communication cost model.  Everything that blocks — ``recv``, a
collective, an idle endpoint — parks on the run's one
:class:`~repro.mpi.waits.WaitTable`; no wait is ever ended by the wall
clock, and a wait nobody can end is a
:class:`~repro.errors.DeadlockError` naming who waits on what.

Simulated time: every operation charges an alpha-beta cost
(``latency + nbytes / bandwidth``) to the calling rank's thread-local
clock.  Blocking collectives additionally *align* participants' clocks
to the latest arrival plus the collective's cost — the same
synchronization a real blocking collective imposes.

Reductions on numpy arrays avoid pickling; object-mode methods accept
anything.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import DeadlockError, MPIError, RankMismatchError
from repro.hamr.runtime import current_clock, use_clock
from repro.hw.clock import SimClock
from repro.mpi.waits import WaitTable
from repro.units import gbs, us

__all__ = [
    "CommCostModel",
    "Communicator",
    "SelfCommunicator",
    "ThreadCommunicator",
    "run_spmd",
]

_REDUCTIONS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "prod": lambda a, b: a * b,
}


@dataclass(frozen=True)
class CommCostModel:
    """Alpha-beta message cost (Slingshot-class interconnect defaults)."""

    latency: float = us(2.0)
    bandwidth: float = gbs(25.0)
    barrier_cost: float = us(5.0)

    def message(self, nbytes: int) -> float:
        return self.latency + int(nbytes) / self.bandwidth

    def collective(self, nbytes: int, size: int) -> float:
        """Tree-algorithm collective over ``size`` ranks."""
        rounds = max(1, int(np.ceil(np.log2(max(size, 2)))))
        return rounds * self.message(nbytes)


def _fold(fn: Callable[[Any, Any], Any], board: Sequence[Any]) -> Any:
    """``fn`` over the board, left to right (an ndarray start is copied)."""
    acc = board[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
    for item in board[1:]:
        acc = fn(acc, item)
    return acc


def _coordinated_fold(fn, board: Sequence[tuple[int, np.ndarray]]):
    """A coordination round's board of ``(epoch, vector)``: the folded
    vector, or ``(what, details)`` naming the skew every rank reports."""
    epochs, shapes = [e for e, _v in board], [v.shape for _e, v in board]
    if len(set(epochs)) > 1:
        return (f"coordination round skew — peers disagree on the allreduce "
                f"epoch ({sorted(set(epochs))})", {"epochs": epochs})
    if len(set(shapes)) > 1:
        return (f"coordination round layout skew — peers contribute vectors "
                f"of different shapes ({shapes})", {"shapes": shapes})
    return _fold(fn, [v for _e, v in board])


def _payload_bytes(obj: Any) -> int:
    wire = getattr(obj, "wire_nbytes", None)
    if wire is not None:
        # Transport-plane frames know their own wire footprint (payload
        # plus header), which differs from the python object's size.
        return int(wire)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, bool)) or obj is None:
        return 8
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj) or 8
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values()) or 8
    return 64  # generic pickled object estimate


class Communicator:
    """Abstract MPI-like communicator."""

    rank: int
    size: int

    # -- point to point ---------------------------------------------------------
    def send(
        self, obj: Any, dest: int, tag: int = 0, charge: bool = True
    ) -> None:
        """Send ``obj`` to ``dest``.

        ``charge=False`` marks control-plane traffic (transport ACKs,
        drain handshakes): the message still travels but costs no
        simulated time, modeling the asynchronous progress engine a
        real transport runs beside the application.
        """
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0, charge: bool = True) -> Any:
        """Block until a message from ``source`` with ``tag`` arrives."""
        raise NotImplementedError

    def try_recv(
        self, source: int, tag: int = 0, charge: bool = True
    ) -> tuple[bool, Any]:
        """Nonblocking receive: ``(True, obj)``, or ``(False, None)`` —
        charging nothing — when no such message is waiting."""
        raise NotImplementedError

    def wait_arrival(self, seen: int) -> int:
        """Block until more than ``seen`` messages were ever addressed
        to this rank on this communicator; returns the new count.

        The idle wait of a loop that multiplexes many mailboxes with
        :meth:`try_recv`: take the count the previous call returned
        (0 at first), sweep, and call again only after a sweep that
        found nothing — anything that arrived mid-sweep returns at once.
        """
        raise NotImplementedError

    # -- collectives ----------------------------------------------------------------
    def barrier(self) -> None:
        raise NotImplementedError

    def allgather(self, obj: Any) -> list[Any]:
        raise NotImplementedError

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        raise NotImplementedError

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        return self._reduction(obj, partial(_fold, self._reducer(op)))

    def _reduction(self, contribution: Any, fold: Callable, then=None):
        """Charged as an allreduce (free here, on one rank): ``fold(board)``
        runs once for the group and every rank gets the result (an ndarray
        as its own copy).  Given ``then``, the first rank out runs
        ``then(result)`` once too; every rank gets ``(result, verdict)``."""
        result = fold((contribution,))
        return result if then is None else (result, then(result))

    def Allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Buffer allreduce: returns the reduced array."""
        out = self.allreduce(np.ascontiguousarray(array), op=op)
        return np.asarray(out)

    # -- control-plane coordination ----------------------------------------------
    #: Coordination rounds completed on this endpoint (see below).
    _coordination_epoch: int = 0

    @property
    def coordination_epoch(self) -> int:
        """Number of :meth:`coordinated_allreduce` rounds completed."""
        return self._coordination_epoch

    def coordinated_allreduce(
        self, array: np.ndarray, op: str = "sum", decide=None
    ):
        """Epoch-checked buffer allreduce for control-plane rounds.

        A rank that enters round ``k`` while a peer is still on round
        ``k - 1`` must fail fast instead of folding vectors from
        different rounds, or deadlocking against a peer waiting on
        transport progress.  Every call therefore ships a per-endpoint
        epoch counter alongside the payload in the *same* exchange, and
        any disagreement — or a peer's vector of another shape, which
        numpy would broadcast silently — raises a structured
        :class:`~repro.errors.MPIError` on every rank: the caller's
        signal that governor cadences have skewed across ranks.  Checks
        and fold run once for the group.  Given ``decide``, one rank
        runs ``decide(folded)`` for the round and every rank returns
        ``(folded, verdict)``.
        """
        fn = self._reducer(op)
        self._coordination_epoch += 1
        epoch = self._coordination_epoch
        out = self._reduction(
            (epoch, np.ascontiguousarray(array)),
            partial(_coordinated_fold, fn),
            None if decide is None else (
                # A skewed round decides nothing: every rank raises.
                lambda v: decide(v) if isinstance(v, np.ndarray) else None
            ),
        )
        folded = out if decide is None else out[0]
        if not isinstance(folded, np.ndarray):
            what, seen = folded
            raise MPIError(
                f"rank {self.rank}: {what}",
                details={"rank": self.rank, "epoch": epoch, **seen},
            )
        return out

    def dup(self) -> "Communicator":
        """Duplicate the communicator (``MPI_Comm_dup``).

        The duplicate has its own collective context, so traffic on it
        cannot interleave with the parent's — which is exactly what an
        asynchronous in situ thread needs to reduce results while the
        simulation keeps using the parent communicator.
        """
        raise NotImplementedError

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition into sub-communicators (``MPI_Comm_split``).

        Ranks passing the same ``color`` form one new communicator,
        ordered by ``(key, old rank)`` (``key`` defaults to the old
        rank).  Collective over the parent.  Used by the in transit
        layer to separate simulation ranks from analysis endpoints.
        """
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def _reducer(op: str) -> Callable[[Any, Any], Any]:
        try:
            return _REDUCTIONS[op]
        except KeyError:
            raise MPIError(
                f"unknown reduction {op!r}; supported: {sorted(_REDUCTIONS)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


class SelfCommunicator(Communicator):
    """MPI_COMM_SELF: a single-rank world with trivial semantics."""

    rank = 0
    size = 1

    def __init__(self, cost: CommCostModel | None = None):
        self.cost = cost if cost is not None else CommCostModel()

    def send(self, obj, dest, tag=0, charge=True):
        raise MPIError("cannot send on a size-1 communicator")

    def recv(self, source, tag=0, charge=True):
        raise MPIError("cannot recv on a size-1 communicator")

    try_recv = recv

    def barrier(self):
        return None

    def allgather(self, obj):
        return [obj]

    def alltoall(self, objs):
        if len(objs) != 1:
            raise RankMismatchError("alltoall on size-1 needs exactly one item")
        return list(objs)

    def dup(self) -> "SelfCommunicator":
        return SelfCommunicator(self.cost)

    def split(self, color: int, key: int | None = None) -> "SelfCommunicator":
        return SelfCommunicator(self.cost)


class _Round:
    """One generation of a communicator's collective rendezvous."""

    __slots__ = ("index", "board", "latest", "arrived", "result", "verdict")

    def __init__(self, size: int, index: int):
        self.index = index
        self.board: list[Any] = [None] * size
        self.latest = 0.0
        self.arrived = 0
        #: ``(fold(board), latest clock)``, published once by the last
        #: arriver and never mutated, so nobody rendezvouses again to
        #: recycle it; ``verdict`` is ``(then(result),)`` once decided.
        self.result: tuple[Any, float] | None = None
        self.verdict: tuple | None = None


class _World:
    """Shared state behind all rank endpoints of one communicator.

    Mailboxes and the open collective round, guarded by the lock of the
    run's :class:`~repro.mpi.waits.WaitTable` — shared with every world
    made by ``dup``/``split``, so a deadlock across communicators is
    still seen.  ``members`` names each local rank's context in the
    root world's terms, for the deadlock report.
    """

    def __init__(
        self, table: WaitTable, members: Sequence[str], cost: CommCostModel,
        label: str = "world",
    ):
        self.table = table
        self.members = list(members)
        self.size = len(self.members)
        self.cost = cost
        self.label = label
        # Mailboxes: (dest, source, tag) -> (payload, sent_at, nbytes) in
        # order; nbytes is None for a message sent uncharged.
        self.boxes: defaultdict[tuple[int, int, int], deque] = defaultdict(deque)
        #: Messages ever addressed to each rank (the idle-wait counter).
        self.arrivals = [0] * self.size
        self.round = _Round(self.size, 0)

    def child(self, ranks: Sequence[int], suffix: str) -> "_World":
        """The world of a ``dup``/``split`` over ``ranks`` of this one."""
        return _World(
            self.table, [self.members[r] for r in ranks], self.cost,
            f"{self.label}.{suffix}",
        )

    def describe(self, rank: int, what: str) -> dict:
        """The deadlock-report entry for ``rank`` blocked on ``what``."""
        return {
            "waits_on": f"{what} on {self.label}",
            "mailboxes": [
                {"source": source, "tag": tag, "messages": len(box)}
                for (dest, source, tag), box in sorted(self.boxes.items())
                if dest == rank and box
            ],
        }

    def peer(self, rank: int) -> str:
        """``rank`` as the report spells it: root-world name, and whether
        it already returned (the usual reason nobody will ever send)."""
        name = self.members[rank]
        done = ", finished" if name in self.table.finished else ""
        return f"{rank} ({name}{done})"


class ThreadCommunicator(Communicator):
    """One rank's endpoint in a threaded SPMD world."""

    def __init__(self, world: _World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.cost = world.cost

    # -- point to point ------------------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise RankMismatchError(
                f"peer {peer} out of range for communicator of size {self.size}"
            )
        if peer == self.rank:
            raise MPIError("self-messaging is not supported; use local data")

    def send(
        self, obj: Any, dest: int, tag: int = 0, charge: bool = True
    ) -> None:
        self._check_peer(dest)
        clk = current_clock()
        nbytes = None  # sized once, here or at a charged delivery
        if charge:
            nbytes = _payload_bytes(obj)
            clk.advance(self.cost.message(nbytes))
        w = self._world
        with w.table.lock:
            w.boxes[(dest, self.rank, tag)].append((obj, clk.now, nbytes))
            w.arrivals[dest] += 1
            w.table.wake((w, dest, self.rank, tag))
            w.table.wake((w, dest))

    def recv(self, source: int, tag: int = 0, charge: bool = True) -> Any:
        self._check_peer(source)
        w = self._world
        with w.table.lock:
            box = w.boxes[(self.rank, source, tag)]
            while not box:
                w.table.park(
                    (w, self.rank, source, tag),
                    lambda: w.describe(
                        self.rank, f"recv(source={w.peer(source)}, tag={tag})"
                    ),
                )
            message = box.popleft()
        return self._deliver(message, charge)

    def try_recv(
        self, source: int, tag: int = 0, charge: bool = True
    ) -> tuple[bool, Any]:
        self._check_peer(source)
        w = self._world
        with w.table.lock:
            box = w.boxes.get((self.rank, source, tag))
            if not box:
                return False, None
            message = box.popleft()
        return True, self._deliver(message, charge)

    def _deliver(self, message: tuple[Any, float, int | None], charge: bool) -> Any:
        obj, sent_at, nbytes = message
        if charge:
            # The message cannot be received before it was sent
            # (simulated time).
            clk = current_clock()
            clk.wait_for(sent_at)
            if nbytes is None:
                nbytes = _payload_bytes(obj)
            clk.advance(self.cost.message(nbytes))
        return obj

    def wait_arrival(self, seen: int) -> int:
        w = self._world
        with w.table.lock:
            while w.arrivals[self.rank] <= seen:
                w.table.park(
                    (w, self.rank),
                    lambda: w.describe(self.rank, "idle(any message to me)"),
                )
            return w.arrivals[self.rank]

    # -- collectives -----------------------------------------------------------------
    def barrier(self) -> None:
        self._rendezvous(None, self.cost.barrier_cost)

    def _rendezvous(self, contribution: Any, extra: float, fold=tuple, then=None):
        """Post a contribution and park — once — until every rank has.

        The last arriver publishes ``fold(board)`` (the board itself by
        default) and the latest arrival clock and opens the next round;
        every rank then aligns its simulated clock to that latest
        arrival plus ``extra``.  See :meth:`_reduction` for the rest.
        """
        w, clk = self._world, current_clock()
        with w.table.lock:
            rnd = w.round
            rnd.board[self.rank] = contribution
            rnd.latest = max(rnd.latest, clk.now)
            rnd.arrived += 1
            if rnd.arrived == self.size:
                rnd.result = (fold(rnd.board), rnd.latest)
                w.round = _Round(self.size, rnd.index + 1)
                for rank in range(self.size):
                    w.table.wake((rnd, rank))
            while rnd.result is None:
                w.table.park(
                    (rnd, self.rank),
                    lambda: w.describe(
                        self.rank,
                        f"collective #{rnd.index} "
                        f"({rnd.arrived}/{self.size} arrived)",
                    ),
                )
        result, latest = rnd.result
        clk.wait_for(latest + extra)
        if isinstance(result, np.ndarray):
            result = result.copy()
        if then is None:
            return result
        if rnd.verdict is None:  # only the baton holder runs: decide alone
            rnd.verdict = (then(result),)
        return result, rnd.verdict[0]

    def _reduction(self, contribution, fold, then=None):
        return self._rendezvous(
            contribution,
            self.cost.collective(_payload_bytes(contribution), self.size),
            fold, then,
        )

    def _exchange(self, contribution: Any, nbytes: int) -> list[Any]:
        """All ranks post a contribution; everyone sees the full board."""
        return list(self._rendezvous(
            contribution, self.cost.collective(nbytes, self.size)
        ))

    def allgather(self, obj: Any) -> list[Any]:
        return self._exchange(obj, _payload_bytes(obj))

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise RankMismatchError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )
        board = self._exchange(list(objs), _payload_bytes(objs))
        return [board[src][self.rank] for src in range(self.size)]

    def dup(self) -> "ThreadCommunicator":
        """Collective duplication: all ranks must call ``dup`` together."""
        w = self._world
        child = w.child(range(self.size), "dup") if self.rank == 0 else None
        board = self._exchange(child, 0)
        return ThreadCommunicator(board[0], self.rank)

    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator":
        """Collective partition (``MPI_Comm_split``); see the base class."""
        color = int(color)
        key = self.rank if key is None else int(key)
        board = self._exchange((color, key, self.rank), 8)
        members = sorted(
            (k, r) for c, k, r in board if c == color
        )
        ranks = [r for _k, r in members]
        new_rank = ranks.index(self.rank)
        # The lowest old rank of each color creates its group's world;
        # a second exchange distributes the worlds.
        leader = min(ranks)
        child = (
            self._world.child(ranks, f"split({color})")
            if self.rank == leader else None
        )
        board2 = self._exchange(child, 0)
        if len(ranks) == 1:
            return SelfCommunicator(self.cost)  # type: ignore[return-value]
        return ThreadCommunicator(board2[leader], new_rank)


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    cost: CommCostModel | None = None,
    start_time: float = 0.0,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``size`` rank threads; gather returns.

    Each rank gets a fresh simulated clock starting at ``start_time``.
    The first exception raised by any rank is re-raised in the caller
    (wrapped with the failing rank's id); ranks blocked at that moment
    wake with a :class:`~repro.errors.DeadlockError`, which is also
    what a run whose ranks all block on each other raises.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1: {size}")
    cost = cost if cost is not None else CommCostModel()
    if size == 1:
        comm = SelfCommunicator(cost)
        with use_clock(SimClock(start_time, name="rank0")):
            return [fn(comm, *args)]

    table = WaitTable()
    world = _World(table, [f"rank {r}" for r in range(size)], cost)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        comm = ThreadCommunicator(world, rank)
        with use_clock(SimClock(start_time, name=f"rank{rank}")):
            try:
                results[rank] = fn(comm, *args)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors.append((rank, exc))
                table.fail(world.members[rank], exc)

    ranks = [
        table.spawn(world.members[r], partial(runner, r), start_time)
        for r in range(size)
    ]
    table.start()
    for ctx in ranks:
        table.join(ctx)

    if errors:
        # Peers blocked when a rank failed woke with the secondary
        # DeadlockError; report the original failure instead.
        errors.sort(key=lambda e: (isinstance(e[1], DeadlockError), e[0]))
        rank, exc = errors[0]
        if isinstance(exc, DeadlockError):
            raise exc
        raise MPIError(f"rank {rank} failed: {exc!r}") from exc
    return results
