"""The SENSEI bridge: the single instrumentation point for simulations.

A simulation instruments itself once::

    bridge = Bridge()
    bridge.initialize(comm, analyses=[...])      # or from XML
    ...
    bridge.execute(data_adaptor)                 # each step
    ...
    bridge.finalize()

and every configured analysis runs each step under its own execution
method and placement.  The bridge also keeps per-step apparent-cost
records so harness code can produce the paper's Figure 3 decomposition
without instrumenting the simulation further.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ExecutionError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import Communicator, SelfCommunicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor

__all__ = ["Bridge"]


class Bridge:
    """Couples one simulation to a set of analysis back-ends."""

    def __init__(self):
        self._analyses: list[AnalysisAdaptor] = []
        self._comm: Communicator = SelfCommunicator()
        self._initialized = False
        self._finalized = False
        #: Apparent in situ cost per executed step (simulated seconds).
        self.step_costs: list[float] = []

    @property
    def analyses(self) -> tuple[AnalysisAdaptor, ...]:
        return tuple(self._analyses)

    def initialize(
        self,
        comm: Communicator | None = None,
        analyses: Sequence[AnalysisAdaptor] | Iterable[AnalysisAdaptor] = (),
    ) -> None:
        """Bind the communicator and initialize all back-ends.

        Collective: every rank must call with its communicator endpoint.
        """
        if self._initialized:
            raise ExecutionError("bridge already initialized")
        self._comm = comm if comm is not None else SelfCommunicator()
        for a in analyses:
            self._analyses.append(a)
        for a in self._analyses:
            a.initialize(self._comm)
        self._initialized = True

    def execute(self, data: DataAdaptor) -> bool:
        """Run every back-end for the current step; returns True to continue.

        (SENSEI back-ends can vote to stop a simulation; none of the
        reproduced back-ends do, but the convention is preserved.)
        """
        if not self._initialized:
            self.initialize(data.get_comm())
        if self._finalized:
            raise ExecutionError("bridge already finalized")
        clock = current_clock()
        t0 = clock.now
        ok = True
        for a in self._analyses:
            ok = bool(a.execute(data)) and ok
        self.step_costs.append(clock.now - t0)
        return ok

    def finalize(self) -> None:
        """Finalize all back-ends (drains asynchronous work)."""
        if self._finalized:
            return
        for a in self._analyses:
            a.finalize()
        self._finalized = True

    # -- reporting ---------------------------------------------------------------
    @property
    def total_apparent_time(self) -> float:
        """Total simulated time the simulation spent blocked on in situ."""
        return sum(self.step_costs)

    @property
    def total_actual_time(self) -> float:
        """Total simulated time spent inside analyses across back-ends."""
        return sum(a.total_actual_time for a in self._analyses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bridge(analyses={[a.name for a in self._analyses]})"
