"""The wait table: the one place an SPMD run blocks, and its scheduler.

Every blocking operation of a :func:`~repro.mpi.comm.run_spmd` region —
``recv``, a collective, an idle endpoint, joining an asynchronous task
— parks the calling *execution context* (a rank thread, or an
:class:`~repro.sensei.execution.AsyncRunner` worker of one) on the
run's single :class:`WaitTable`.  Whoever makes a wait satisfiable (a
``send``, the last arriver of a collective, a finishing task) unparks
the waiter under the table's lock, so a context counts as parked
exactly while nothing it waits for is deliverable.

That makes "will this wait ever end" a question about the table, not
the wall clock: when every live context is parked, or a rank raises,
every parked context wakes with one :class:`~repro.errors.DeadlockError`
listing who waits on what.  There is no timeout anywhere.

The table also decides *who runs*: exactly one context holds the
baton.  When it parks or finishes, the baton goes to the ready context
with the lowest ``(simulated clock, spawn order)`` — spawn order is
rank id for ranks, then asynchronous tasks in creation order — and
only that context is notified.  A context making a pure call
(:func:`off_scheduler`) gives up the baton and keeps its place in that
order: it runs the call at once, away, while the baton moves on; if it
is the lowest, nobody runs until it is back.  So the order never
depends on thread timing, and contexts never convoy on the interpreter
lock.  A call too short for the overlap to pay for moving it is simply
made holding the baton, with no scheduling point.  Contexts run pinned to
one CPU (handing the baton to a thread on another core costs more than
the work between handoffs).  A context away runs on the other CPUs
while someone holds the baton, and on all of them while nobody does,
so a codec call never queues behind the holder for the home CPU.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import threading
from typing import Callable, Hashable

from repro.errors import DeadlockError, MPIError
from repro.hamr.runtime import current_clock

__all__ = ["Context", "WaitTable", "current_context", "off_scheduler"]

_tls = threading.local()

if hasattr(os, "sched_setaffinity"):
    #: Every CPU the process may use, the one the baton holder runs on,
    #: and the ones left for contexts off the scheduler beside it.
    _ALL_CPUS = frozenset(os.sched_getaffinity(0))
    _HOME_CPU = frozenset({min(_ALL_CPUS)})
    _AWAY_CPUS = _ALL_CPUS - _HOME_CPU or _ALL_CPUS

    def _pin(cpus: frozenset, tid: int = 0) -> None:
        os.sched_setaffinity(tid, cpus)

else:  # no per-thread affinity on this platform: run unpinned
    _ALL_CPUS = _HOME_CPU = _AWAY_CPUS = frozenset()

    def _pin(cpus: frozenset, tid: int = 0) -> None:
        pass


def current_context() -> "Context | None":
    """The calling thread's execution context (None outside ``run_spmd``)."""
    return getattr(_tls, "context", None)


class Context:
    """One thread of an SPMD run: a rank, or an asynchronous task of one."""

    __slots__ = (
        "table", "name", "order", "now", "tid", "cpus", "thread", "finished",
        "_wake",
    )

    def __init__(
        self, table: "WaitTable", name: str, order: int, now: float,
        fn: Callable[[], None],
    ):
        self.table = table
        self.name = name
        #: ``(now, order)`` is this context's place in the baton order;
        #: ``now`` is its simulated clock when it last left the baton.
        self.order = order
        self.now = now
        self.finished = False
        self.cpus: frozenset | None = None  # last pinned to (None: inherited)
        # Its own condition on the shared lock: a handoff wakes exactly
        # this thread, never a herd.
        self._wake = threading.Condition(table.lock)

        def main() -> None:
            _tls.context = self
            self.tid = threading.get_native_id()
            self.pin(_HOME_CPU)
            with table.lock:
                table._await_baton(self)
            try:
                fn()
            finally:
                table._finish(self)
                self.pin(_ALL_CPUS)

        # The table is what gives every context its clock discipline
        # and its turn, so the one thread constructor lives here.
        self.thread = threading.Thread(target=main, name=name)

    def pin(self, cpus: frozenset) -> None:
        """Move this context's thread to ``cpus``, unless it is there."""
        if cpus != self.cpus:
            _pin(cpus, self.tid)
            self.cpus = cpus


class WaitTable:
    """Who is live, who is parked on what, and who holds the baton.

    Callers hold :attr:`lock` around "check whether my wait is already
    satisfied, else :meth:`park`" and around "make a wait satisfiable,
    then :meth:`wake` it", which is what keeps the parked count exact.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: Contexts spawned and not yet finished (running or parked).
        self.live = 0
        #: Wait key -> (parked context, callable describing its wait as
        #: ``{"waits_on": str, "mailboxes": [...]}``).
        self.parked: dict[Hashable, tuple[Context, Callable[[], dict]]] = {}
        #: Names of the contexts that already returned.
        self.finished: set[str] = set()
        #: The context allowed to run (None while the next one is away).
        self.holder: Context | None = None
        #: Times the baton went to a context waiting for it.
        self.handoffs = 0
        self._ready: list[tuple[float, int, Context]] = []
        self._unstarted: list[Context] = []
        #: Contexts inside an :func:`off_scheduler` call.
        self._away: set[Context] = set()
        self._orders = itertools.count()
        self._verdict: tuple[str, dict] | None = None

    def spawn(self, name: str, fn: Callable[[], None], now: float) -> Context:
        """Register a ready context running ``fn`` from simulated time
        ``now``; :meth:`start` runs it (after the caller registered its
        siblings, so none can park against a table that does not know
        the others yet)."""
        with self.lock:
            ctx = Context(self, name, next(self._orders), float(now), fn)
            self.live += 1
            self._unstarted.append(ctx)
            heapq.heappush(self._ready, (ctx.now, ctx.order, ctx))
        return ctx

    def start(self) -> None:
        """Start the spawned threads; hand out the baton if nobody has it."""
        with self.lock:
            new, self._unstarted = self._unstarted, []
            if self.holder is None:
                self._pass()
        # Threads start on every CPU, as they finish: a thread that
        # lingers in its start or exit on the baton's CPU contends for
        # malloc arenas with it, and glibc answers with new arenas.
        caller = current_context()
        if caller:
            caller.pin(_ALL_CPUS)
        for ctx in new:
            ctx.thread.start()
        if caller:
            caller.pin(_HOME_CPU)

    def park(self, key: Hashable, describe: Callable[[], dict]) -> None:
        """Block until :meth:`wake` names ``key``; the caller holds the lock.

        Raises :class:`DeadlockError` instead when nobody can ever do so.
        """
        ctx = current_context()
        if ctx is None or ctx.table is not self:
            raise MPIError(
                "blocking call from a thread this SPMD run did not start"
            )
        if self._verdict is None:
            if key in self.parked:
                raise MPIError(
                    f"{ctx.name} and {self.parked[key][0].name} block on "
                    "the same wait; give each thread its own communicator "
                    "(dup)"
                )
            self.parked[key] = ctx, describe
            ctx.now = current_clock().now
            if len(self.parked) == self.live:
                self._declare("deadlock")
            self._pass()
            self._await_baton(ctx)
        if self._verdict is not None:
            message, details = self._verdict
            raise DeadlockError(message, details=details)

    def wake(self, key: Hashable) -> None:
        """Make whoever parked on ``key`` ready (lock held; no-op if
        nobody).  It runs when the baton reaches it, not before."""
        entry = self.parked.pop(key, None)
        if entry is not None:
            ctx = entry[0]
            heapq.heappush(self._ready, (ctx.now, ctx.order, ctx))

    def join(self, task: Context) -> None:
        """Wait until ``task`` has finished: parked, for a context of
        this table; a plain thread join for anyone else."""
        caller = current_context()
        if caller is None or caller.table is not self:
            task.thread.join()
            return
        with self.lock:
            while not task.finished:
                self.park(task, lambda: {
                    "waits_on": f"join({task.name})", "mailboxes": [],
                })

    def fail(self, name: str, exc: BaseException) -> None:
        """``name`` raised: wake every parked context with the report."""
        with self.lock:
            if self._verdict is None:
                self._declare(f"{name} raised {exc!r}")

    def _pass(self) -> None:
        """Give the baton to the lowest ready context, notifying only it;
        nobody holds it while that context is away."""
        ready = self._ready
        if ready and ready[0][2] not in self._away:
            ctx = heapq.heappop(ready)[2]
            self.holder = ctx
            if ctx is not current_context():
                self.handoffs += 1
                ctx._wake.notify()
        else:
            self.holder = None
        # Off-scheduler threads stay where they are unless told: on the
        # home CPU they would share it with the new holder until the OS
        # rebalanced, which is most of a codec call.
        cpus = _ALL_CPUS if self.holder is None else _AWAY_CPUS
        for away in self._away:
            away.pin(cpus)

    def _await_baton(self, ctx: Context) -> None:
        while self.holder is not ctx:
            ctx._wake.wait()

    def _finish(self, ctx: Context) -> None:
        with self.lock:
            self.live -= 1
            ctx.finished = True
            self.finished.add(ctx.name)
            self.wake(ctx)
            if self._verdict is None and self.live and len(self.parked) == self.live:
                self._declare("deadlock")
            self._pass()

    def _declare(self, cause: str) -> None:
        def by_rank(name: str):
            return len(name), name

        parked = [
            {"context": ctx.name, **describe()}
            for ctx, describe in sorted(
                self.parked.values(), key=lambda entry: by_rank(entry[0].name)
            )
        ]
        finished = sorted(self.finished, key=by_rank)
        waits = "; ".join(
            f"{p['context']} waits on {p['waits_on']}" for p in parked
        )
        done = f"; finished: {', '.join(finished)}" if finished else ""
        self._verdict = (
            f"{cause}: {waits or 'no context was parked'}{done}",
            {"cause": cause, "parked": parked, "finished": finished},
        )
        for key in list(self.parked):
            self.wake(key)


@contextlib.contextmanager
def off_scheduler():
    """Run a pure call — one that reads and writes nothing another
    context sees, and charges no clock — away from the baton, keeping
    the caller's ``(now, order)`` place, as a park would.

    The call runs at once on the other CPUs beside the next holder, and
    the caller waits for its turn after; if it is the lowest, nobody
    runs until it is back, so the order of holders does not depend on
    when the call returns.  Outside a run it is a plain block.
    """
    ctx = current_context()
    if ctx is None:
        yield
        return
    table = ctx.table
    with table.lock:
        ctx.now = current_clock().now
        heapq.heappush(table._ready, (ctx.now, ctx.order, ctx))
        table._away.add(ctx)
        table._pass()
    try:
        yield
    finally:
        with table.lock:
            table._away.discard(ctx)
            ctx.pin(_HOME_CPU)
            if table.holder is None:
                table._pass()
            table._await_baton(ctx)
