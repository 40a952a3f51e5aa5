"""The wait table: the one place an SPMD run blocks.

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
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable

from repro.errors import DeadlockError, MPIError

__all__ = ["Context", "WaitTable", "current_context"]

_tls = threading.local()


def current_context() -> "Context | None":
    """The calling thread's execution context (None outside ``run_spmd``)."""
    return getattr(_tls, "context", None)


class Context:
    """One thread of an SPMD run: a rank, or an asynchronous task of one."""

    __slots__ = ("table", "name", "thread", "finished", "_wake")

    def __init__(self, table: "WaitTable", name: str, fn: Callable[[], None]):
        self.table = table
        self.name = name
        self.finished = False
        # Its own condition on the shared lock: an unpark wakes exactly
        # this thread, never a herd.
        self._wake = threading.Condition(table.lock)

        def main() -> None:
            _tls.context = self
            try:
                fn()
            finally:
                table._finish(self)

        # The table is what gives every context its clock discipline
        # (ranks via use_clock, tasks via AsyncRunner), so the one
        # sanctioned thread constructor lives here.
        self.thread = threading.Thread(target=main, name=name)  # lint: disable=HL005


class WaitTable:
    """Who is live and who is parked on what, for one ``run_spmd``.

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
        self._verdict: tuple[str, dict] | None = None

    def spawn(self, name: str, fn: Callable[[], None]) -> Context:
        """Register a live context running ``fn``; the caller starts
        ``.thread`` (after registering its siblings, so none can park
        against a table that does not know the others yet)."""
        ctx = Context(self, name, fn)
        with self.lock:
            self.live += 1
        return ctx

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
            entry = self.parked[key] = ctx, describe
            if len(self.parked) == self.live:
                self._declare("deadlock")
            while self.parked.get(key) is entry:
                ctx._wake.wait()
        if self._verdict is not None:
            message, details = self._verdict
            raise DeadlockError(message, details=details)

    def wake(self, key: Hashable) -> None:
        """Unpark whoever parked on ``key`` (lock held; no-op if nobody)."""
        entry = self.parked.pop(key, None)
        if entry is not None:
            entry[0]._wake.notify()

    def join(self, task: Context) -> None:
        """Park the caller until ``task`` has finished."""
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

    def _finish(self, ctx: Context) -> None:
        with self.lock:
            self.live -= 1
            ctx.finished = True
            self.finished.add(ctx.name)
            self.wake(ctx)
            if self._verdict is None and self.live and len(self.parked) == self.live:
                self._declare("deadlock")

    def _declare(self, cause: str) -> None:
        # Park and finish order are thread-arrival order; the report is
        # sorted so the same deadlock always reads the same.
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
        for ctx, _describe in self.parked.values():
            ctx._wake.notify()
        self.parked.clear()
