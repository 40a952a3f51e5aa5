"""The analysis-adaptor base class, with the heterogeneous extensions.

"The new control parameters and API are defined in the base class for
SENSEI analysis back-ends and therefore available to all back-ends."
(paper Section 3)

Back-ends implement two hooks:

- :meth:`AnalysisAdaptor.acquire` — take the data needed from the data
  adaptor, either zero-copy (lockstep) or as a deep copy
  (asynchronous);
- :meth:`AnalysisAdaptor.process` — run the analysis on an acquired
  payload, on the resolved device, against the given communicator.

The base class supplies everything else: execution-method dispatch
(lockstep calls ``process`` inline; asynchronous launches it on a
worker thread over a duplicated communicator), device placement via
:mod:`repro.sensei.placement`, and timing capture for the harness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import Communicator, SelfCommunicator
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.execution import AsyncRunner, ExecutionMethod
from repro.sensei.placement import DevicePlacement

__all__ = ["AnalysisAdaptor", "StepTiming"]


@dataclass
class StepTiming:
    """Per-execute timing record (simulated seconds).

    ``apparent`` is what the simulation observes (the blocked time on
    its clock); ``actual`` is the analysis's own busy time — equal under
    lockstep, very different under asynchronous execution (the paper's
    "<10 ms apparent" observation).
    """

    time_step: int
    apparent: float
    actual: float
    method: ExecutionMethod
    device_id: int


class AnalysisAdaptor(ABC):
    """Base class for all SENSEI analysis back-ends."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self._comm: Communicator = SelfCommunicator()
        self._async_comm: Communicator | None = None
        self._placement = DevicePlacement.auto()
        self._method = ExecutionMethod.LOCKSTEP
        self._runner: AsyncRunner | None = None
        self._initialized = False
        self._finalized = False
        self.timings: list[StepTiming] = []

    # -- the extension control API ---------------------------------------------------
    def set_execution_method(self, method: ExecutionMethod | str) -> None:
        """Select lockstep or asynchronous execution, before ``initialize``
        (the method is a static attribute of the run)."""
        if self._initialized:
            raise ExecutionError(
                f"analysis {self.name!r}: set the execution method "
                "before initialize"
            )
        if isinstance(method, str):
            method = ExecutionMethod.parse(method)
        self._method = method

    def set_placement(self, placement: DevicePlacement) -> None:
        self._placement = placement

    def set_device_id(self, device_id: int) -> None:
        """Manual explicit device selection (-1 = host)."""
        if device_id < 0:
            self._placement = DevicePlacement.host()
        else:
            self._placement = DevicePlacement.manual(device_id)

    def set_auto_placement(
        self, n_use: int | None = None, stride: int = 1, offset: int = 0
    ) -> None:
        """Automatic device selection with Eq. 1's control parameters."""
        self._placement = DevicePlacement.auto(n_use, stride, offset)

    @property
    def placement(self) -> DevicePlacement:
        return self._placement

    def resolve_device(self) -> int:
        """The device this rank's analysis runs on (-1 = host)."""
        return self._placement.resolve(self._comm.rank)

    # -- life cycle ----------------------------------------------------------------------
    def initialize(self, comm: Communicator | None = None) -> None:
        """Bind the communicator; duplicate it for asynchronous traffic.

        Must be called collectively (all ranks) before the first
        ``execute``; the bridge does this.
        """
        if self._initialized:
            return
        self._comm = comm if comm is not None else SelfCommunicator()
        if self._method is ExecutionMethod.ASYNCHRONOUS:
            # The analysis thread reduces over its own communicator so
            # its collectives cannot interleave with the simulation's.
            self._async_comm = self._comm.dup()
            self._runner = AsyncRunner(self.name)
        self._initialized = True

    def execute(self, data: DataAdaptor) -> bool:
        """Run the analysis for the data adaptor's current step."""
        if not self._initialized:
            self.initialize(data.get_comm())
        if self._finalized:
            raise ExecutionError(f"analysis {self.name!r} already finalized")
        clock = current_clock()
        device_id = self.resolve_device()
        t0 = clock.now
        if self._method is ExecutionMethod.LOCKSTEP:
            payload = self.acquire(data, deep=False)
            self.process(payload, self._comm, device_id)
            apparent = clock.now - t0
            actual = apparent
        else:
            payload = self.acquire(data, deep=True)
            step_comm = self._async_comm
            self._runner.launch(
                lambda: self.process(payload, step_comm, device_id),
                start_time=clock.now,
            )
            apparent = clock.now - t0
            actual = float("nan")  # filled in on finalize for async steps
        self.timings.append(
            StepTiming(
                time_step=data.time_step,
                apparent=apparent,
                actual=actual,
                method=self._method,
                device_id=device_id,
            )
        )
        return True

    def finalize(self) -> None:
        """Drain asynchronous work and release resources."""
        if self._finalized:
            return
        if self._runner is not None:
            self._runner.drain()
            # Distribute the measured async busy time over the async steps.
            async_steps = [t for t in self.timings if t.method is ExecutionMethod.ASYNCHRONOUS]
            if async_steps:
                per_step = self._runner.busy_sim_time / len(async_steps)
                for t in async_steps:
                    t.actual = per_step
        self._finalized = True

    # -- statistics -------------------------------------------------------------------
    @property
    def total_apparent_time(self) -> float:
        return sum(t.apparent for t in self.timings)

    @property
    def total_actual_time(self) -> float:
        if self._runner is not None:
            return self._runner.busy_sim_time
        return sum(t.actual for t in self.timings)

    # -- back-end hooks ------------------------------------------------------------------
    @abstractmethod
    def acquire(self, data: DataAdaptor, deep: bool) -> Any:
        """Take what the analysis needs from the data adaptor.

        With ``deep=False`` (lockstep) return zero-copy references; with
        ``deep=True`` (asynchronous) return deep copies the simulation
        cannot subsequently invalidate.
        """

    @abstractmethod
    def process(self, payload: Any, comm: Communicator, device_id: int) -> None:
        """Run the analysis on an acquired payload.

        ``device_id`` is the resolved placement (-1 = host).  Runs on
        the simulation thread under lockstep and on a worker thread
        (with its own simulated clock and duplicated communicator)
        under asynchronous execution.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, method={self._method.value}, "
            f"placement={self._placement.mode.value})"
        )
