"""Opt-in runtime sanitizer for the heterogeneous substrate.

While active, a :class:`Sanitizer` instruments
:class:`~repro.hamr.buffer.Buffer` and
:class:`~repro.sensei.execution.AsyncRunner` (class-level wrappers,
restored on exit) to detect the hazards the substrate otherwise permits
mechanically:

- **cross-location reads** — dereferencing a buffer's raw storage from
  a thread that can access neither host memory nor the data's device
  ("the wrong side of the bus").  The engine modules that implement
  the sanctioned access path (view / copier / kernel launch) are
  exempt, mirroring rule HL001's allowlist;
- **use-after-free** — reading wrapped or owned storage after
  :meth:`Buffer.free` ran (and, for zero-copy wraps, its ``deleter``),
  or freeing storage an in-flight asynchronous analysis still reads;
- **write-while-analyzing races** — the simulation mutating a buffer
  (``fill``) that an in-flight
  :class:`AsyncRunner` task has read and not yet drained.  Detection
  uses per-buffer generation counters plus an access log keyed by the
  simulated clock.

``mode="raise"`` raises a structured
:class:`~repro.errors.SanitizerError` at the violating call;
``mode="record"`` keeps the program running and accumulates
:class:`Violation` reports.  Violations, lint findings, and the
``details`` dicts on :class:`~repro.errors.StreamError` /
:class:`~repro.errors.AllocationError` share one format (keys
``buffer``, ``device_id``, ``stream_mode``).

Usage::

    from repro.analysis.sanitizer import Sanitizer

    with Sanitizer(mode="record") as san:
        run_workload()
    print(san.format_report())
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Callable

from repro.errors import SanitizerError
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock, get_active_device
from repro.sensei.execution import AsyncRunner

__all__ = ["Sanitizer", "Violation", "AccessRecord"]

#: Engine modules allowed to touch raw storage (the HL001 allowlist
#: plus the movement/launch engines that sit below the view layer).
_EXEMPT_SUFFIXES = (
    "repro/hamr/view.py",
    "repro/hamr/buffer.py",
    "repro/hamr/copier.py",
    "repro/pm/kernels.py",
    "repro/analysis/sanitizer.py",
)

#: Access-log bound; beyond it, records are dropped (counted).
_MAX_ACCESS_RECORDS = 50_000


@dataclasses.dataclass(frozen=True)
class AccessRecord:
    """One observed raw-storage access, keyed by the simulated clock."""

    op: str               # "read" | "write" | "free"
    buffer: str
    sim_time: float
    thread: str
    device_id: int
    generation: int
    in_async_task: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One detected illegal access pattern."""

    kind: str             # "cross-location-read" | "use-after-free" | ...
    message: str
    sim_time: float
    details: tuple        # sorted (key, value) pairs, like Finding.details

    @property
    def details_dict(self) -> dict:
        return dict(self.details)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "sim_time": self.sim_time,
            "details": self.details_dict,
        }

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.sim_time:.6g}s: {self.message}"


def _buffer_details(buf: Buffer) -> dict:
    return {
        "buffer": buf.name,
        "device_id": buf.device_id,
        "stream_mode": buf.stream_mode.value,
    }


class Sanitizer:
    """Instrument Buffer + AsyncRunner while active.  One at a time."""

    _active: "Sanitizer | None" = None
    _install_lock = threading.Lock()

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self.violations: list[Violation] = []
        self.accesses: list[AccessRecord] = []
        self.dropped_accesses = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._gen: dict[int, int] = {}           # id(buffer) -> generation
        self._task_reads: dict[int, tuple[Buffer, int]] = {}
        self._task_inflight = 0
        self._orig: dict[str, object] = {}

    # -- activation -----------------------------------------------------------
    def start(self) -> "Sanitizer":
        with Sanitizer._install_lock:
            if Sanitizer._active is not None:
                raise SanitizerError("a sanitizer is already active")
            Sanitizer._active = self
            self._orig = {
                # The property object itself, not storage access.
                "data": Buffer.data,  # lint: disable=HL001
                "fill": Buffer.fill,
                "free": Buffer.free,
                "launch": AsyncRunner.launch,
                "drain": AsyncRunner.drain,
            }
            self._install()
        return self

    def stop(self) -> None:
        with Sanitizer._install_lock:
            if Sanitizer._active is not self:
                return
            Buffer.data = self._orig["data"]  # lint: disable=HL001
            Buffer.fill = self._orig["fill"]          # type: ignore[assignment]
            Buffer.free = self._orig["free"]          # type: ignore[assignment]
            AsyncRunner.launch = self._orig["launch"]  # type: ignore[assignment]
            AsyncRunner.drain = self._orig["drain"]    # type: ignore[assignment]
            Sanitizer._active = None

    def __enter__(self) -> "Sanitizer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- instrumentation ------------------------------------------------------
    def _install(self) -> None:
        san = self
        orig_data = self._orig["data"].fget  # type: ignore[union-attr]
        orig_fill = self._orig["fill"]
        orig_free = self._orig["free"]
        orig_launch = self._orig["launch"]
        orig_drain = self._orig["drain"]

        def data_fget(buf: Buffer):
            caller = sys._getframe(1).f_code.co_filename.replace("\\", "/")
            san._on_read(buf, caller)
            return orig_data(buf)

        def fill(buf: Buffer, value, clock=None):
            san._on_write(buf, "write")
            return orig_fill(buf, value, clock)

        def free(buf: Buffer, clock=None):
            san._on_free(buf)
            return orig_free(buf, clock)

        def launch(runner: AsyncRunner, fn: Callable[[], None],
                   start_time: float | None = None) -> float:
            def instrumented():
                san._tls.in_task = True
                with san._lock:
                    san._task_inflight += 1
                try:
                    fn()
                finally:
                    with san._lock:
                        san._task_inflight -= 1
                    san._tls.in_task = False

            return orig_launch(runner, instrumented, start_time)

        def drain(runner: AsyncRunner) -> None:
            try:
                orig_drain(runner)
            finally:
                with san._lock:
                    san._task_reads.clear()

        Buffer.data = property(data_fget, doc=orig_data.__doc__)  # lint: disable=HL001
        Buffer.fill = fill                                        # type: ignore[assignment]
        Buffer.free = free                                        # type: ignore[assignment]
        AsyncRunner.launch = launch                               # type: ignore[assignment]
        AsyncRunner.drain = drain                                 # type: ignore[assignment]

    # -- event handling -------------------------------------------------------
    def _in_task(self) -> bool:
        return bool(getattr(self._tls, "in_task", False))

    def _record(self, op: str, buf: Buffer, in_task: bool) -> None:
        # caller holds self._lock
        if len(self.accesses) >= _MAX_ACCESS_RECORDS:
            self.dropped_accesses += 1
            return
        self.accesses.append(
            AccessRecord(
                op=op,
                buffer=buf.name,
                sim_time=current_clock().now,
                thread=threading.current_thread().name,
                device_id=buf.device_id,
                generation=self._gen.get(id(buf), 0),
                in_async_task=in_task,
            )
        )

    def _violation(self, kind: str, message: str, details: dict) -> None:
        v = Violation(
            kind=kind,
            message=message,
            sim_time=current_clock().now,
            details=tuple(sorted(details.items())),
        )
        with self._lock:
            self.violations.append(v)
        if self.mode == "raise":
            raise SanitizerError(message, details={**details, "kind": kind})

    def _on_read(self, buf: Buffer, caller_file: str) -> None:
        in_task = self._in_task()
        if buf.freed:
            self._violation(
                "use-after-free",
                f"read of freed buffer {buf.name!r}",
                _buffer_details(buf),
            )
            return  # record mode: fall through to the original error
        with self._lock:
            self._record("read", buf, in_task)
            if in_task and self._task_inflight > 0:
                self._task_reads[id(buf)] = (buf, self._gen.get(id(buf), 0))
        if caller_file.endswith(_EXEMPT_SUFFIXES):
            return
        active = get_active_device()
        if not (buf.host_accessible() or buf.device_accessible(active)):
            self._violation(
                "cross-location-read",
                f"buffer {buf.name!r} lives on device {buf.device_id} but "
                f"was dereferenced from a thread on device {active}",
                {**_buffer_details(buf), "active_device": active},
            )

    def _on_write(self, buf: Buffer, op: str) -> None:
        in_task = self._in_task()
        with self._lock:
            self._gen[id(buf)] = self._gen.get(id(buf), 0) + 1
            self._record(op, buf, in_task)
            racing = (
                not in_task
                and self._task_inflight > 0
                and id(buf) in self._task_reads
            )
        if racing:
            self._violation(
                "write-while-analyzing",
                f"buffer {buf.name!r} written while an asynchronous "
                "analysis that read it is still in flight (drain first)",
                {**_buffer_details(buf),
                 "generation": self._gen.get(id(buf), 0)},
            )

    def _on_free(self, buf: Buffer) -> None:
        in_task = self._in_task()
        with self._lock:
            self._record("free", buf, in_task)
            racing = (
                not in_task
                and self._task_inflight > 0
                and id(buf) in self._task_reads
            )
        if racing:
            self._violation(
                "use-after-free",
                f"buffer {buf.name!r} freed while an asynchronous "
                "analysis that read it is still in flight",
                _buffer_details(buf),
            )

    def format_report(self) -> str:
        with self._lock:
            violations = list(self.violations)
            n_access = len(self.accesses)
        lines = [
            f"sanitizer: {n_access} raw-storage access(es) observed, "
            f"{len(violations)} violation(s)"
        ]
        for v in violations:
            lines.append(f"  {v}")
            for k, val in v.details:
                lines.append(f"      {k}: {val}")
        return "\n".join(lines)
