"""The data-binning operator: orchestration, MPI merge, mesh assembly.

A :class:`DataBinner` is configured with coordinate axes and a list of
``(variable, reduction)`` requests.  ``execute`` consumes a
:class:`~repro.svtk.table.TableData` (any mix of host- and
device-resident columns), runs either the CPU or the device
implementation, merges partial grids across MPI ranks, and returns a
:class:`~repro.svtk.mesh.UniformCartesianMesh` holding the finalized
cell arrays.

The paper's evaluation applies "the data binning operator ... to 10
variables over 9 coordinate systems for a total of 90 binning
operations", each coordinate system handled by a separate operator
instance orchestrated by SENSEI's XML configuration — see
:mod:`repro.sensei.backends.binning`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.binning.axes import AxisSpec, compute_bounds, flat_bin_index
from repro.binning.cpu import bin_cpu
from repro.binning.cuda import BinPlan, bin_device
from repro.binning.reduce import ReductionOp
from repro.errors import BinningError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import Stream, StreamMode, default_stream
from repro.hamr.view import SharedView, accessible_view
from repro.hw.node import get_node
from repro.mpi.comm import Communicator
from repro.pm.kernels import launch
from repro.svtk.data_array import DataArray
from repro.svtk.hamr_array import HAMRDataArray
from repro.svtk.mesh import UniformCartesianMesh
from repro.svtk.table import TableData

__all__ = ["BinRequest", "DataBinner"]


@dataclass(frozen=True)
class BinRequest:
    """One binned variable: reduce ``variable`` with ``op`` per bin.

    ``variable`` is ``None`` for the COUNT (histogram) request.
    """

    op: ReductionOp
    variable: str | None = None

    def __post_init__(self):
        if self.op.needs_values and self.variable is None:
            raise BinningError(f"{self.op.value} reduction requires a variable")
        if not self.op.needs_values and self.variable is not None:
            raise BinningError("count reduction takes no variable")

    @property
    def result_name(self) -> str:
        return self.op.result_name(self.variable)


class DataBinner:
    """Bins tabular data onto a uniform Cartesian mesh.

    Parameters
    ----------
    axes:
        Coordinate axes (1-D or more); e.g. the paper's Figure 1 middle
        panel uses ``[AxisSpec('x', 256), AxisSpec('y', 256)]``.
    requests:
        Variables/reductions to bin.  A COUNT request is added
        automatically if absent (the histogram is always produced).
    """

    def __init__(
        self,
        axes: Sequence[AxisSpec],
        requests: Sequence[BinRequest] = (),
        name: str = "binning",
        device_strategy=None,
    ):
        from repro.binning.strategies import BinningStrategy

        if not axes:
            raise BinningError("at least one axis is required")
        self.axes = tuple(axes)
        reqs = list(requests)
        if not any(r.op is ReductionOp.COUNT for r in reqs):
            reqs.insert(0, BinRequest(ReductionOp.COUNT))
        names = [r.result_name for r in reqs]
        if len(set(names)) != len(names):
            raise BinningError(f"duplicate binning requests: {names}")
        self.requests = tuple(reqs)
        self.name = str(name)
        if device_strategy is None:
            device_strategy = BinningStrategy.ATOMIC
        elif isinstance(device_strategy, str):
            device_strategy = BinningStrategy.parse(device_strategy)
        #: How device kernels resolve races (the paper's atomic baseline
        #: or one of the Section 5 optimized strategies).
        self.device_strategy = device_strategy
        self._compiled: tuple | None = None

    def _compile(self, device_id: int, n_rows: int) -> tuple:
        """Per request ``(variable, result name, MPI op, BinPlan)`` for
        tables of ``n_rows`` binned on ``device_id``: worked out on the
        first step with that shape and kept until the shape (or the
        device strategy) changes."""
        key = (device_id, n_rows, self.device_strategy)
        compiled = self._compiled
        if compiled is None or compiled[0] != key:
            n_cells = math.prod(ax.n_bins for ax in self.axes)
            compiled = self._compiled = (key, tuple(
                (r.variable, r.result_name, r.op.mpi_op, BinPlan.of(
                    r.op, n_rows, n_cells, device_id, self.device_strategy,
                ))
                for r in self.requests
            ))
        return compiled[1]

    # -- column staging ------------------------------------------------------------
    @staticmethod
    def _column_values(col: DataArray) -> np.ndarray:
        """Host values of a column (view released after the copy)."""
        view = col.get_host_accessible()
        col.synchronize()
        values = np.array(view.get(), dtype=np.float64, copy=True)
        view.release()
        return values

    @staticmethod
    def _device_view(col: DataArray, device_id: int,
                     stream: Stream | None, mode: StreamMode) -> SharedView:
        """A device-accessible view of a column of any array subclass."""
        if isinstance(col, HAMRDataArray):
            return col.get_accessible(PMKind.CUDA, device_id, stream, mode)
        # Host-only arrays (stock VTK baseline): wrap, then move.
        values = np.asarray(col.as_numpy_host(), dtype=np.float64)
        host = Buffer.wrap(
            values,
            Allocator.MALLOC,
            name=col.name,
            owner=values,
        )
        return accessible_view(host, PMKind.CUDA, device_id, stream=stream, mode=mode)

    # -- execution --------------------------------------------------------------------
    def execute(
        self,
        table: TableData,
        comm: Communicator | None = None,
        device_id: int = HOST_DEVICE_ID,
        stream: Stream | None = None,
        mode: StreamMode = StreamMode.SYNC,
        cores: int | None = None,
    ) -> UniformCartesianMesh:
        """Run the binning and return the result mesh.

        ``device_id`` selects where the binning kernels execute
        (``HOST_DEVICE_ID`` = CPU implementation).  With a communicator,
        bounds and grids are globally consistent and merged; every rank
        returns the full result.
        """
        for ax in self.axes:
            if ax.column not in table:
                raise BinningError(
                    f"axis column {ax.column!r} not in table "
                    f"(columns: {list(table.column_names)})"
                )
        for req in self.requests:
            if req.variable is not None and req.variable not in table:
                raise BinningError(
                    f"binned variable {req.variable!r} not in table "
                    f"(columns: {list(table.column_names)})"
                )

        coords = [self._column_values(table.column(ax.column)) for ax in self.axes]
        bounds = [
            compute_bounds(ax, vals, comm) for ax, vals in zip(self.axes, coords)
        ]
        dims = [ax.n_bins for ax in self.axes]
        plans = self._compile(device_id, table.n_rows)

        if device_id == HOST_DEVICE_ID:
            grids = self._execute_host(table, coords, bounds, dims, plans, cores)
        else:
            grids = self._execute_device(
                table, bounds, dims, plans, device_id, stream, mode
            )

        # Merge partial grids across ranks, then finalize.
        mesh = UniformCartesianMesh(
            dims,
            origin=[lo for lo, _ in bounds],
            spacing=[(hi - lo) / nb for (lo, hi), nb in zip(bounds, dims)],
            name=self.name,
        )
        for (_var, result_name, mpi_op, plan), acc in zip(plans, grids):
            if comm is not None:
                acc = comm.Allreduce(acc, op=mpi_op)
            mesh.add_host_cell_array(result_name, plan.op.finalize(acc))
        return mesh

    def _execute_host(
        self,
        table: TableData,
        coords: list[np.ndarray],
        bounds: list[tuple[float, float]],
        dims: list[int],
        plans: tuple,
        cores: int | None,
    ) -> list[np.ndarray]:
        """CPU path: index once, then one pass per request."""
        flat = flat_bin_index(coords, bounds, dims)
        grids = []
        # Charge the host roofline for the work (numerics below are real).
        host = get_node().host
        clock = current_clock()
        for variable, _name, _mpi_op, plan in plans:
            values = (
                self._column_values(table.column(variable))
                if variable is not None
                else None
            )
            cost = plan.cost
            clock.advance(
                host.kernel_time(
                    flops=cost.flops,
                    bytes_moved=cost.bytes_moved,
                    atomic_fraction=cost.atomic_fraction,
                    cores=cores,
                )
            )
            grids.append(bin_cpu(flat, values, plan.op, plan.n_cells))
        return grids

    def _execute_device(
        self,
        table: TableData,
        bounds: list[tuple[float, float]],
        dims: list[int],
        plans: tuple,
        device_id: int,
        stream: Stream | None,
        mode: StreamMode,
    ) -> list[np.ndarray]:
        """Device path: stage columns, index kernel, binning kernels.

        Every charged buffer it makes — staged views, the flat index,
        the accumulators — is released even when a later step raises.
        """
        if stream is None:
            stream = default_stream(device_id)
        coord_views: list[SharedView] = []
        idx = None
        grids = []
        try:
            for ax in self.axes:
                coord_views.append(
                    self._device_view(table.column(ax.column), device_id, stream, mode)
                )
            n_rows = table.n_rows
            idx = Buffer.allocate(
                n_rows, np.int64, Allocator.CUDA, device_id=device_id,
                stream=stream, stream_mode=mode, name="flat-bin-idx",
            )

            def index_kernel(*arrays: np.ndarray) -> None:
                cs = [np.asarray(a, dtype=np.float64) for a in arrays[:-1]]
                arrays[-1][:] = flat_bin_index(cs, bounds, dims)

            launch(
                index_kernel,
                reads=[v.buffer for v in coord_views],
                writes=[idx],
                device_id=device_id,
                flops=6.0 * n_rows * len(self.axes),
                bytes_moved=8.0 * n_rows * (len(self.axes) + 1),
                stream=stream,
                mode=mode,
                name="binning-index",
            )
            for variable, _name, _mpi_op, plan in plans:
                grids.append(self._bin_one(
                    table, variable, plan, idx, device_id, stream, mode,
                ))
        finally:
            for v in coord_views:
                v.release()
            if idx is not None:
                idx.free()
        return grids

    def _bin_one(
        self,
        table: TableData,
        variable: str | None,
        plan: BinPlan,
        idx: Buffer,
        device_id: int,
        stream: Stream,
        mode: StreamMode,
    ) -> np.ndarray:
        """One request on the device: stage its column, launch, read the
        accumulator back, free; the column view and the accumulator are
        released even if a step raises."""
        val_view = None
        try:
            if variable is not None:
                val_view = self._device_view(
                    table.column(variable), device_id, stream, mode
                )
            acc, _ev = bin_device(
                idx, None if val_view is None else val_view.buffer, plan,
                device_id, stream=stream, mode=mode,
            )
            try:
                acc.synchronize()
                # Read the device accumulator back through the access
                # API: the host is the wrong side of the bus here, so
                # this stages a temporary and charges the D2H transfer.
                with accessible_view(acc, PMKind.HOST, HOST_DEVICE_ID,
                                     stream=stream, mode=mode) as acc_view:
                    acc_view.synchronize()
                    return np.array(acc_view.get(), copy=True).reshape(plan.shape)
            finally:
                acc.free()
        finally:
            if val_view is not None:
                val_view.release()
