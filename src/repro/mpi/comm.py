"""Communicators and the SPMD runner.

Design notes
------------
Ranks are threads sharing one process.  A :class:`_World` holds the
shared state: per-destination mailboxes for point-to-point traffic, a
scratch board plus reusable barrier for collectives, and the
communication cost model.

Simulated time: every operation charges an alpha-beta cost
(``latency + nbytes / bandwidth``) to the calling rank's thread-local
clock.  Blocking collectives additionally *align* participants' clocks
to the latest arrival plus the collective's cost — the same
synchronization a real blocking collective imposes — using a
``threading.Barrier`` rendezvous.

Reductions on numpy arrays avoid pickling; object-mode methods accept
anything.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import MPIError, RankMismatchError
from repro.hamr.runtime import current_clock, use_clock
from repro.hw.clock import SimClock
from repro.mpi.request import Request
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


#: Wall-clock fallback applied when ``recv`` is called without a timeout;
#: hitting it means a peer died or the program deadlocked, reported as a
#: structured :class:`MPIError` (tests shrink this to keep failures fast).
DEFAULT_RECV_TIMEOUT = 60.0


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

    def recv(
        self,
        source: int,
        tag: int = 0,
        timeout: float | None = None,
        charge: bool = True,
    ) -> Any:
        raise NotImplementedError

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request.completed()

    def irecv(self, source: int, tag: int = 0) -> Request:
        return Request(lambda timeout: self.recv(source, tag, timeout))

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        req = self.isend(obj, dest, tag)
        out = self.recv(source, tag)
        req.wait()
        return out

    # -- numpy buffer variants ---------------------------------------------------
    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        self.send(np.ascontiguousarray(array), dest, tag)

    def Recv(self, out: np.ndarray, source: int, tag: int = 0) -> None:
        data = self.recv(source, tag)
        out[...] = np.asarray(data).reshape(out.shape)

    # -- collectives ----------------------------------------------------------------
    def barrier(self) -> None:
        raise NotImplementedError

    def bcast(self, obj: Any, root: int = 0) -> Any:
        raise NotImplementedError

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        raise NotImplementedError

    def allgather(self, obj: Any) -> list[Any]:
        raise NotImplementedError

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        raise NotImplementedError

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        raise NotImplementedError

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any | None:
        raise NotImplementedError

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        raise NotImplementedError

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
        self, array: np.ndarray, op: str = "sum"
    ) -> np.ndarray:
        """Epoch-checked buffer allreduce for control-plane rounds.

        Coordination rounds (cross-rank governor decisions) interleave
        with transport point-to-point traffic and application
        collectives.  A rank that enters round ``k`` while a peer is
        still on round ``k - 1`` must fail fast instead of silently
        folding vectors from different rounds — or, worse, parking in
        a blocking collective that deadlocks against a peer waiting on
        transport progress.  Every call therefore increments a
        per-endpoint epoch counter and ships it alongside the payload
        in a *single* exchange (nonblocking-friendly: one rendezvous,
        no extra barrier for the check); any disagreement raises a
        structured :class:`~repro.errors.MPIError` naming the epochs
        seen, which is the caller's signal that governor cadences have
        skewed across ranks.  Contributions whose shape differs from
        this rank's fail the same way — numpy would otherwise broadcast
        a short vector into a long one silently.
        """
        self._coordination_epoch += 1
        epoch = self._coordination_epoch
        payload = np.ascontiguousarray(array)
        board = self.allgather((epoch, payload))
        epochs = [e for e, _v in board]
        if len(set(epochs)) > 1:
            raise MPIError(
                f"rank {self.rank}: coordination round skew — peers "
                f"disagree on the allreduce epoch ({sorted(set(epochs))})",
                details={
                    "rank": self.rank,
                    "epoch": epoch,
                    "epochs": epochs,
                },
            )
        shapes = [np.shape(v) for _e, v in board]
        if any(shape != payload.shape for shape in shapes):
            raise MPIError(
                f"rank {self.rank}: coordination round layout skew — "
                f"peers contribute vectors of different shapes ({shapes})",
                details={
                    "rank": self.rank,
                    "epoch": epoch,
                    "shapes": shapes,
                },
            )
        fn = self._reducer(op)
        acc = np.array(board[0][1], copy=True)
        for _e, contribution in board[1:]:
            acc = fn(acc, np.asarray(contribution))
        return np.asarray(acc)

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
    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise RankMismatchError(
                f"root {root} out of range for communicator of size {self.size}"
            )

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

    def recv(self, source, tag=0, timeout=None, charge=True):
        raise MPIError("cannot recv on a size-1 communicator")

    def barrier(self):
        return None

    def bcast(self, obj, root=0):
        self._check_root(root)
        return obj

    def gather(self, obj, root=0):
        self._check_root(root)
        return [obj]

    def allgather(self, obj):
        return [obj]

    def scatter(self, objs, root=0):
        self._check_root(root)
        if objs is None or len(objs) != 1:
            raise RankMismatchError("scatter on size-1 needs exactly one item")
        return objs[0]

    def alltoall(self, objs):
        if len(objs) != 1:
            raise RankMismatchError("alltoall on size-1 needs exactly one item")
        return list(objs)

    def reduce(self, obj, op="sum", root=0):
        self._check_root(root)
        self._reducer(op)
        return obj

    def allreduce(self, obj, op="sum"):
        self._reducer(op)
        return obj

    def dup(self) -> "SelfCommunicator":
        return SelfCommunicator(self.cost)

    def split(self, color: int, key: int | None = None) -> "SelfCommunicator":
        return SelfCommunicator(self.cost)


class _World:
    """Shared state behind all rank endpoints of one SPMD region."""

    def __init__(self, size: int, cost: CommCostModel):
        self.size = size
        self.cost = cost
        self.barrier = threading.Barrier(size)
        # Mailboxes: (dest, source, tag) -> queue of payloads.
        self._boxes: dict[tuple[int, int, int], queue.Queue] = {}
        self._boxes_lock = threading.Lock()
        # Scratch board for collectives: rank -> contribution.
        self.scratch: list[Any] = [None] * size
        self.clock_marks: list[float] = [0.0] * size
        self.failed = threading.Event()

    def box(self, dest: int, source: int, tag: int) -> queue.Queue:
        key = (dest, source, tag)
        with self._boxes_lock:
            q = self._boxes.get(key)
            if q is None:
                q = queue.Queue()
                self._boxes[key] = q
            return q


class ThreadCommunicator(Communicator):
    """One rank's endpoint in a threaded SPMD world."""

    def __init__(self, world: _World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.cost = world.cost

    # -- internal rendezvous -----------------------------------------------------
    def _rendezvous(self) -> None:
        """Wait on the world barrier, aborting if a peer failed."""
        if self._world.failed.is_set():
            raise MPIError("a peer rank failed; aborting collective")
        try:
            self._world.barrier.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            raise MPIError(
                "collective barrier broken (peer failure or deadlock)"
            ) from None

    def _align_clocks(self, extra: float) -> None:
        """Align all ranks' simulated clocks to the latest arrival + extra."""
        clk = current_clock()
        self._world.clock_marks[self.rank] = clk.now
        self._rendezvous()
        latest = max(self._world.clock_marks)
        clk.wait_for(latest + extra)
        self._rendezvous()

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
        if charge:
            current_clock().advance(self.cost.message(_payload_bytes(obj)))
        self._world.box(dest, self.rank, tag).put((obj, current_clock().now))

    def recv(
        self,
        source: int,
        tag: int = 0,
        timeout: float | None = None,
        charge: bool = True,
    ) -> Any:
        self._check_peer(source)
        q = self._world.box(self.rank, source, tag)
        try:
            obj, sent_at = q.get(
                timeout=timeout if timeout is not None else DEFAULT_RECV_TIMEOUT
            )
        except queue.Empty:
            if timeout is not None:
                # The caller opted into polling; TimeoutError is the
                # contract it loops on.
                raise TimeoutError(
                    f"rank {self.rank}: no message from {source} (tag {tag})"
                ) from None
            # Blocking recv hit the wall-clock fallback: a peer died or
            # the exchange pattern deadlocked.  Structured, like every
            # other substrate failure (PR-1 convention).
            raise MPIError(
                f"rank {self.rank}: blocking recv from {source} (tag {tag}) "
                f"gave up after the {DEFAULT_RECV_TIMEOUT:.0f}s wall-clock "
                "fallback",
                details={
                    "rank": self.rank,
                    "source": source,
                    "tag": tag,
                    "timeout": DEFAULT_RECV_TIMEOUT,
                },
            ) from None
        clk = current_clock()
        if charge:
            # The message cannot be received before it was sent
            # (simulated time).
            clk.wait_for(sent_at)
            clk.advance(self.cost.message(_payload_bytes(obj)))
        return obj

    # -- collectives -----------------------------------------------------------------
    def barrier(self) -> None:
        self._align_clocks(self.cost.barrier_cost)

    def _exchange(self, contribution: Any, nbytes: int) -> list[Any]:
        """All ranks post a contribution; everyone sees the full board."""
        self._world.scratch[self.rank] = contribution
        self._align_clocks(self.cost.collective(nbytes, self.size))
        board = list(self._world.scratch)
        self._rendezvous()  # all copied the board; scratch reusable
        return board

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        board = self._exchange(
            obj if self.rank == root else None,
            _payload_bytes(obj) if self.rank == root else 0,
        )
        return board[root]

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_root(root)
        board = self._exchange(obj, _payload_bytes(obj))
        return board if self.rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        return self._exchange(obj, _payload_bytes(obj))

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_root(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                self._world.failed.set()
                self._world.barrier.abort()
                raise RankMismatchError(
                    f"scatter needs exactly {self.size} items at root"
                )
        board = self._exchange(
            list(objs) if self.rank == root else None,
            _payload_bytes(objs) if self.rank == root else 0,
        )
        return board[root][self.rank]

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            self._world.failed.set()
            self._world.barrier.abort()
            raise RankMismatchError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )
        board = self._exchange(list(objs), _payload_bytes(objs))
        return [board[src][self.rank] for src in range(self.size)]

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any | None:
        self._check_root(root)
        fn = self._reducer(op)
        board = self._exchange(obj, _payload_bytes(obj))
        if self.rank != root:
            return None
        return self._fold(board, fn)

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        fn = self._reducer(op)
        board = self._exchange(obj, _payload_bytes(obj))
        return self._fold(board, fn)

    def dup(self) -> "ThreadCommunicator":
        """Collective duplication: all ranks must call ``dup`` together."""
        child = _World(self.size, self.cost) if self.rank == 0 else None
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
        child = _World(len(ranks), self.cost) if self.rank == leader else None
        board2 = self._exchange(child, 0)
        if len(ranks) == 1:
            return SelfCommunicator(self.cost)  # type: ignore[return-value]
        return ThreadCommunicator(board2[leader], new_rank)

    @staticmethod
    def _fold(board: list[Any], fn: Callable[[Any, Any], Any]) -> Any:
        acc = board[0]
        if isinstance(acc, np.ndarray):
            acc = acc.copy()
        for item in board[1:]:
            acc = fn(acc, item)
        return acc


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
    (wrapped with the failing rank's id); surviving ranks are unblocked
    by aborting the world barrier.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1: {size}")
    cost = cost if cost is not None else CommCostModel()
    if size == 1:
        comm = SelfCommunicator(cost)
        with use_clock(SimClock(start_time, name="rank0")):
            return [fn(comm, *args)]

    world = _World(size, cost)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = ThreadCommunicator(world, rank)
        with use_clock(SimClock(start_time, name=f"rank{rank}")):
            try:
                results[rank] = fn(comm, *args)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                with errors_lock:
                    errors.append((rank, exc))
                world.failed.set()
                world.barrier.abort()

    threads = [
        # SPMD ranks are peers, not analysis tasks: each gets its own
        # clock via use_clock above, so AsyncRunner's single-lane
        # drain semantics do not apply here.
        threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}")  # lint: disable=HL005
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if errors:
        # Peers of a failing rank die on the aborted barrier with a
        # secondary MPIError; report the original failure instead.
        errors.sort(key=lambda e: (isinstance(e[1], MPIError), e[0]))
        rank, exc = errors[0]
        raise MPIError(f"rank {rank} failed: {exc!r}") from exc
    return results
