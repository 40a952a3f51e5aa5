"""SENSEI data adaptors — the simulation-facing side of the interface.

A data adaptor presents the simulation's current state to analysis
back-ends on demand: named meshes (here: tables or uniform meshes)
whose arrays are wrapped zero-copy whenever possible.  The adaptor owns
nothing; ``release_data`` drops the references taken for the current
step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.errors import ExecutionError
from repro.mpi.comm import Communicator, SelfCommunicator
from repro.svtk.table import TableData

__all__ = ["DataAdaptor", "TableDataAdaptor"]


class DataAdaptor(ABC):
    """Presents simulation state to analysis back-ends."""

    def __init__(self, comm: Communicator | None = None):
        self._comm = comm if comm is not None else SelfCommunicator()
        self._time = 0.0
        self._time_step = 0

    # -- simulation clock ---------------------------------------------------------
    @property
    def time(self) -> float:
        """Current simulated physical time."""
        return self._time

    @property
    def time_step(self) -> int:
        """Current iteration number."""
        return self._time_step

    def set_step(self, time_step: int, time: float) -> None:
        """Update the adaptor's notion of the current step."""
        self._time_step = int(time_step)
        self._time = float(time)

    # -- communicator ------------------------------------------------------------
    def get_comm(self) -> Communicator:
        return self._comm

    # -- meshes -------------------------------------------------------------------
    @abstractmethod
    def get_mesh_names(self) -> tuple[str, ...]:
        """Names of the meshes the simulation can provide."""

    @abstractmethod
    def get_mesh(self, name: str):
        """The named mesh for the current step (zero-copy wrapped)."""


class TableDataAdaptor(DataAdaptor):
    """A data adaptor over in-memory tables (the common particle case).

    The simulation updates the tables it registered (or re-registers new
    ones) each step; back-ends read them through the data-model access
    APIs, which handle any needed movement.
    """

    def __init__(
        self,
        tables: Mapping[str, TableData] | None = None,
        comm: Communicator | None = None,
    ):
        super().__init__(comm)
        self._tables: dict[str, TableData] = dict(tables or {})

    def set_table(self, name: str, table: TableData) -> None:
        self._tables[str(name)] = table

    def get_mesh_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def get_mesh(self, name: str) -> TableData:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError(
                f"data adaptor has no mesh {name!r}; available: "
                f"{sorted(self._tables)}"
            ) from None

    def release_data(self) -> None:
        """Drop this step's tables once its analyses have run."""
        self._tables.clear()
