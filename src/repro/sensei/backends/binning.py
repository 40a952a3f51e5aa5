"""The data-binning analysis back-end.

One instance handles one coordinate system ("Binning of each coordinate
system was done sequentially in a separate data binning operator
instance and orchestrated by SENSEI using its XML configuration
feature" — paper Section 4.3).  Within the instance, any number of
variables are binned with any of the supported reductions.

Under lockstep execution the back-end reads the simulation's columns
zero-copy; under asynchronous execution the base-class machinery hands
it a deep copy and runs :meth:`process` on a worker thread on the
resolved device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest, DataBinner
from repro.errors import BinningError
from repro.mpi.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.execution import deep_copy_table
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData

__all__ = ["BinningAnalysis", "BinningPayload"]


@dataclass
class BinningPayload:
    """What one step hands to :meth:`BinningAnalysis.process`."""

    table: TableData
    time_step: int
    time: float


class BinningAnalysis(AnalysisAdaptor):
    """SENSEI back-end wrapping :class:`repro.binning.DataBinner`.

    Parameters
    ----------
    mesh_name:
        The data-adaptor mesh (table) to consume.
    axes, requests:
        Binning configuration (see :mod:`repro.binning`).
    result_callback:
        Optional callable invoked with each result mesh (e.g. a writer).
        Called on whichever thread runs the analysis.
    keep_results:
        Keep result meshes in :attr:`results` (default keeps only the
        latest to bound memory; set True for tests/examples needing the
        full history).
    """

    def __init__(
        self,
        mesh_name: str,
        axes: Sequence[AxisSpec],
        requests: Sequence[BinRequest] = (),
        name: str = "",
        result_callback: Callable[[UniformCartesianMesh, int], None] | None = None,
        keep_results: bool = False,
    ):
        axes = tuple(axes)
        super().__init__(name or f"binning[{','.join(a.column for a in axes)}]")
        self.mesh_name = str(mesh_name)
        self.binner = DataBinner(axes, requests, name=self.name)
        self.result_callback = result_callback
        self.keep_results = bool(keep_results)
        self.results: list[UniformCartesianMesh] = []
        self.latest: UniformCartesianMesh | None = None

    # -- hooks -------------------------------------------------------------------
    def acquire(self, data: DataAdaptor, deep: bool) -> BinningPayload:
        table = data.get_mesh(self.mesh_name)
        if not isinstance(table, TableData):
            raise BinningError(
                f"binning consumes tabular data; mesh {self.mesh_name!r} is "
                f"{type(table).__name__}"
            )
        missing = [
            ax.column for ax in self.binner.axes if ax.column not in table
        ]
        if missing:
            raise BinningError(
                f"mesh {self.mesh_name!r} lacks axis columns {missing}; "
                f"has {list(table.column_names)}"
            )
        if deep:
            # "The in situ code deep copies the relevant data" — only the
            # columns this operator touches.
            needed = {ax.column for ax in self.binner.axes}
            needed |= {
                r.variable for r in self.binner.requests if r.variable is not None
            }
            subset = TableData(table.name)
            for col in table.column_names:
                if col in needed:
                    subset.add_column(table.column(col))
            table = deep_copy_table(subset)
        return BinningPayload(table=table, time_step=data.time_step, time=data.time)

    def process(
        self, payload: BinningPayload, comm: Communicator, device_id: int
    ) -> None:
        mesh = self.binner.execute(payload.table, comm=comm, device_id=device_id)
        self.latest = mesh
        if self.keep_results:
            self.results.append(mesh)
        if self.result_callback is not None:
            self.result_callback(mesh, payload.time_step)
