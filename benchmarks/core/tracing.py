"""Outside-in tracing for the traced pass: spans and a stack sampler.

Everything here observes ``repro`` from the benchmark's side of the
API boundary — nothing under ``src/`` is instrumented.

- :class:`Tracer` keeps wall-clock spans in memory (name, rank, start,
  end, parent, repetition id) and writes them out as Chrome-trace JSON
  when the run ends.  A disabled tracer's ``span`` is a no-op, so the
  rank mains are the same code on the traced and the untraced pass.
- :class:`Sampler` is one thread that reads ``sys._current_frames()``
  every 5 ms and buckets each rank thread's innermost ``repro.<layer>``
  frame into *run* or *wait*.  cProfile cannot do this: it sees only
  the thread it was started on, and the work is inside the rank
  threads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import linecache
import sys
import threading
import time

#: The 16 packages under ``src/repro`` — the layers of the share table.
LAYERS = (
    "analysis", "array", "binning", "control", "hamr", "harness", "hw",
    "mpi", "newton", "pm", "sensei", "service", "svtk", "trace",
    "transport", "workloads",
)

#: Modules whose frames mean "parked, not computing".
_WAIT_MODULES = ("threading", "queue")

SAMPLE_INTERVAL_S = 0.005


class Tracer:
    """In-memory wall-clock spans for one repetition."""

    def __init__(self, enabled: bool, rep: int = 0):
        self.enabled = bool(enabled)
        self.rep = int(rep)
        self.spans: list[dict] = []
        #: Optional counter the sampler reads on each tick; a workload
        #: sets it (the load board's in-flight bytes ride on it).
        self.poll = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, rank: int = 0):
        if not self.enabled:
            yield
            return
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "parent": parent, "name": name,
                    "rank": int(rank), "start": start, "end": end,
                    "rep": self.rep,
                })

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total seconds and *self* seconds.

        Self time is a span's duration minus the part of it its child
        spans cover; totals overlap across ranks, self times add up.
        """
        covered: dict[int, float] = {}
        for s in self.spans:
            covered[s["parent"]] = (
                covered.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(
                s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            total = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += max(0.0, total - covered.get(s["id"], 0.0))
        return out

    def chrome_events(self, pid: int = 0, label: str = "") -> list[dict]:
        """The spans as Chrome-trace complete (``"ph": "X"``) events."""
        if not self.spans:
            return []
        origin = min(s["start"] for s in self.spans)
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        }]
        for s in sorted(self.spans, key=lambda s: (s["start"], s["id"])):
            events.append({
                "name": s["name"], "cat": "bench", "ph": "X", "pid": pid,
                "tid": s["rank"],
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {
                    "id": s["id"], "parent": s["parent"], "rep": s["rep"],
                },
            })
        return events


def write_chrome_trace(path, events: list[dict]) -> None:
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _classify(frame) -> tuple[str, str]:
    """``(layer, state)`` of one thread's current stack.

    The layer is the innermost ``repro.<layer>`` frame; the state is
    ``wait`` when the innermost frame of all is parked in
    ``threading``/``queue`` (barrier, condition, mailbox get) or sits
    on a ``time.sleep`` line (the endpoint idle poll), else ``run``.
    A lock acquire has no Python frame of its own, so contention on a
    bare ``with lock:`` — and waiting for the interpreter lock itself —
    still reads as ``run``.
    """
    top_module = frame.f_globals.get("__name__", "")
    state = "run"
    if top_module.split(".")[0] in _WAIT_MODULES:
        state = "wait"
    elif "time.sleep(" in linecache.getline(
        frame.f_code.co_filename, frame.f_lineno
    ):
        state = "wait"
    f = frame
    while f is not None:
        module = f.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return module.split(".")[1], state
        f = f.f_back
    return "bench", state


class Sampler:
    """A 5 ms stack sampler over every thread but its own and the main one.

    On the same tick it reads ``tracer.poll`` when a workload set one.
    """

    def __init__(self, tracer: Tracer):
        self.counts: dict[tuple[str, str], int] = {}
        self.samples = 0
        self.poll_values: list[int] = []
        self._tracer = tracer
        self._stop = threading.Event()
        self._skip = {threading.main_thread().ident}
        # A wall-clock observer, not an analysis task: it has no
        # simulated clock to drain, so AsyncRunner does not apply.
        self._thread = threading.Thread(  # lint: disable=HL005
            target=self._loop, name="bench-sampler", daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        self._skip.add(threading.get_ident())
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            for ident, frame in sys._current_frames().items():
                if ident in self._skip:
                    continue
                key = _classify(frame)
                self.counts[key] = self.counts.get(key, 0) + 1
                self.samples += 1
            poll = self._tracer.poll
            if poll is not None:
                self.poll_values.append(int(poll()))

    def shares(self) -> dict[str, float]:
        """``share.<layer>.run|wait`` fractions of all thread samples."""
        total = max(1, self.samples)
        out = {}
        for layer in LAYERS:
            for state in ("run", "wait"):
                out[f"share.{layer}.{state}"] = (
                    self.counts.get((layer, state), 0) / total
                )
        return out

    def bench_share(self) -> float:
        """Samples with no ``repro`` frame at all (the bench's own code)."""
        total = max(1, self.samples)
        return sum(
            n for (layer, _s), n in self.counts.items() if layer == "bench"
        ) / total
