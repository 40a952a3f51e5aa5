"""The SENSEI data adaptor for Newton++.

Publishes the solver's per-body state as a tabular mesh named
``"bodies"``.  Every column is wrapped **zero-copy** in an
``svtkHAMRDataArray`` tagged with the solver's device and the OpenMP
offload allocator — exactly the hand-off of the paper's Listing 1: the
in situ side receives the simulation's pointers plus the allocator /
device / stream information it needs to access or move them safely.
"""

from __future__ import annotations

from repro.hamr.allocator import Allocator
from repro.hamr.stream import StreamMode, default_stream
from repro.newton.solver import NewtonSolver
from repro.sensei.data_adaptor import DataAdaptor
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.table import TableData

__all__ = ["NewtonDataAdaptor"]

#: Columns the adaptor publishes (per body).
COLUMNS = ("x", "y", "z", "vx", "vy", "vz", "mass")


class NewtonDataAdaptor(DataAdaptor):
    """Presents a :class:`NewtonSolver`'s bodies to SENSEI back-ends."""

    MESH_NAME = "bodies"

    def __init__(self, solver: NewtonSolver | None = None):
        comm = solver.comm if solver is not None else None
        super().__init__(comm)
        self._solver = solver
        self._table: TableData | None = None
        if solver is not None:
            self.update(solver)

    def update(self, solver: NewtonSolver) -> None:
        """Refresh the published state after a solver step."""
        self._solver = solver
        self._comm = solver.comm
        self.set_step(solver.step_count, solver.time)
        self._table = None  # rebuilt lazily; columns wrap current arrays

    def _build_table(self) -> TableData:
        solver = self._solver
        if solver is None:
            raise RuntimeError("adaptor has no solver bound")
        table = TableData(self.MESH_NAME)
        stream = default_stream(solver.device_id)
        for name in COLUMNS:
            values = getattr(solver.bodies, name)
            # Zero-copy: the HDA shares the solver's storage and records
            # where it lives (the solver's device, OpenMP-managed) and
            # which stream orders operations on it.
            table.add_column(
                HAMRDataArray.zero_copy(
                    name,
                    values,
                    allocator=Allocator.OPENMP,
                    device_id=solver.device_id,
                    stream=stream,
                    stream_mode=StreamMode.SYNC,
                    owner=solver.bodies,
                )
            )
        return table

    # -- DataAdaptor interface ---------------------------------------------------
    def get_mesh_names(self) -> tuple[str, ...]:
        return (self.MESH_NAME,)

    def get_mesh(self, name: str) -> TableData:
        if name != self.MESH_NAME:
            raise KeyError(
                f"Newton++ publishes only {self.MESH_NAME!r}, not {name!r}"
            )
        if self._table is None:
            self._table = self._build_table()
        return self._table
