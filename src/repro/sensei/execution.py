"""Execution methods: lockstep and asynchronous.

"The new execution methods are: lockstep where the simulation and in
situ code take turns; and asynchronous where the in situ code uses
threading to execute concurrently with the simulation." (Section 3)

"With asynchronous execution, the in situ analysis code runs in a
separate thread ...  The in situ code deep copies the relevant data,
launches a thread for in situ processing, and returns immediately to
the simulation." (Section 4.3)

:class:`AsyncRunner` provides the threading machinery: real Python
threads carrying their own simulated clocks, one in-flight task per
analysis (a new launch first drains the previous one, modelling the
back-pressure a real implementation has), exception propagation at the
next interaction, and accumulated busy-time statistics for the
Figure 3 style reporting.
"""

from __future__ import annotations

import enum
import threading
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.copier import transfer
from repro.hamr.runtime import current_clock, use_clock
from repro.hamr.view import accessible_view
from repro.hw.clock import SimClock
from repro.mpi.waits import WaitTable, current_context
from repro.svtk.data_array import HostDataArray
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData

__all__ = ["ExecutionMethod", "AsyncRunner", "deep_copy_table"]


class ExecutionMethod(enum.Enum):
    """How the in situ code is scheduled relative to the simulation."""

    LOCKSTEP = "lockstep"
    ASYNCHRONOUS = "asynchronous"

    @classmethod
    def parse(cls, text: str) -> "ExecutionMethod":
        key = str(text).strip().lower()
        if key in ("async", "asynchr.", "asynchr"):
            key = "asynchronous"
        for m in cls:
            if m.value == key:
                return m
        raise ExecutionError(
            f"unknown execution method {text!r}; supported: "
            f"{[m.value for m in cls]} (plus alias 'async')"
        )


def deep_copy_table(table: TableData, clock: SimClock | None = None) -> TableData:
    """Deep copy the relevant data for asynchronous hand-off.

    Each column is copied in place (same memory space) so the analysis
    thread owns storage the simulation can immediately overwrite.  The
    copy cost lands on the calling (simulation) clock — this is the
    "apparent" in situ cost of asynchronous execution.
    """
    out = TableData(table.name)
    for name in table.column_names:
        col = table.column(name)
        if isinstance(col, HAMRDataArray):
            src = col.buffer
            dst_pm = src.allocator.pm_kind if not src.on_host else PMKind.HOST
            dst_loc = HOST_DEVICE_ID if src.on_host else src.device_id
            dst = transfer(
                src,
                dst_loc,
                pm=dst_pm,
                allocator=src.allocator,
                clock=clock,
                name=f"snapshot-{name}",
            )
            # The snapshot was allocated in place, so this view is a
            # zero-cost alias; it keeps the raw access on the sanctioned
            # location-aware path.
            with accessible_view(dst, dst_pm, dst_loc, clock=clock) as sp:
                copy = HAMRDataArray.zero_copy(
                    name,
                    sp.get(),
                    allocator=dst.allocator,
                    device_id=dst_loc,
                    owner=dst,
                )
            out.add_column(copy)
        else:
            values = np.array(col.as_numpy_host(), copy=True)
            src = Buffer.wrap(
                values, Allocator.MALLOC, name=f"snapshot-{name}", owner=values
            )
            # Charge the host memcpy to the caller.
            dst = transfer(src, HOST_DEVICE_ID, pm=PMKind.HOST, clock=clock)
            with accessible_view(dst, PMKind.HOST, HOST_DEVICE_ID, clock=clock) as sp:
                out.add_column(HostDataArray(name, sp.get()))
    return out


class AsyncRunner:
    """Single-lane asynchronous task execution with simulated clocks.

    Each launched task runs in a fresh thread whose simulated clock
    starts at the launch time on the caller's clock.  Only one task is
    in flight: launching while the previous task still runs first joins
    it (in both real and simulated time).  Exceptions raised inside a
    task surface on the next ``launch``/``drain`` call.

    Inside ``run_spmd`` the worker is a live context of the run's wait
    table and the join parks there, so a task stuck in a collective on
    its ``dup``'d communicator is a reported deadlock, not a hang, and
    the task runs when the run's baton reaches it.  Outside, it is the
    one context of a table of its own, beside the caller.
    """

    def __init__(self, name: str = "insitu"):
        self.name = str(name)
        self._join: Callable[[], None] | None = None
        self._task_end_sim: float = 0.0
        self._error: BaseException | None = None
        self._busy_sim_time: float = 0.0
        self._lock = threading.Lock()

    # -- statistics -----------------------------------------------------------
    @property
    def busy_sim_time(self) -> float:
        """Total simulated time spent inside tasks so far."""
        with self._lock:
            return self._busy_sim_time

    # -- execution ---------------------------------------------------------------
    def launch(self, fn: Callable[[], None], start_time: float | None = None) -> float:
        """Start ``fn`` in a worker thread; returns the launch time.

        If the previous task has not finished, the caller blocks until
        it has — and its simulated clock advances to the previous task's
        simulated end, modelling the stall.
        """
        clock = current_clock()
        self.drain()
        if start_time is None:
            start_time = clock.now

        def worker():
            task_clock = SimClock(start_time, name=f"{self.name}-task")
            try:
                with use_clock(task_clock):
                    fn()
            except BaseException as exc:  # noqa: BLE001 - reported on drain
                with self._lock:
                    self._error = exc
            finally:
                with self._lock:
                    self._task_end_sim = max(self._task_end_sim, task_clock.now)
                    self._busy_sim_time += task_clock.now - start_time

        caller = current_context()
        if caller is None:
            # Outside run_spmd the task is the only context of its table.
            table, name = WaitTable(), f"{self.name}-worker"
        else:
            table, name = caller.table, f"{caller.name}/{self.name}-worker"
        task = table.spawn(name, worker, start_time)
        table.start()
        self._join = partial(table.join, task)
        return float(start_time)

    def drain(self) -> None:
        """Join any in-flight task; re-raise its error if it failed.

        The caller's simulated clock is advanced to the task's simulated
        end only if the task finished *later* than the caller — i.e.
        only when the simulation genuinely had to wait.
        """
        if self.in_flight:
            self._join()
            self._join = None
            clock = current_clock()
            with self._lock:
                end = self._task_end_sim
            if end > clock.now:
                clock.wait_for(end)
        with self._lock:
            if self._error is not None:
                err, self._error = self._error, None
                raise ExecutionError(
                    f"asynchronous analysis {self.name!r} failed"
                ) from err

    @property
    def in_flight(self) -> bool:
        """True from a launch until the drain that joins it."""
        return self._join is not None
