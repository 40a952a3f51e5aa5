"""Device (CUDA/HIP) data-binning implementation on virtual GPUs.

Numerics are identical to the host path (they run through numpy on the
buffer storage); what differs is *where* the work is charged.  The
binning kernel's memory traffic is dominated by atomic read-modify-
write updates — every realization increments/updates a bin shared with
other GPU threads — so a large ``atomic_fraction`` is passed to the
roofline model.  This reproduces the paper's observation that "data
binning is not an ideal algorithm for GPUs".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.binning.cpu import apply_binned_update
from repro.binning.reduce import ReductionOp
from repro.binning.strategies import (
    BinningStrategy,
    apply_sorted_update,
    effective_strategy,
    strategy_kernel_cost,
)
from repro.errors import BinningError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.hamr.buffer import Buffer
from repro.hamr.stream import Stream, StreamMode
from repro.hw.clock import SimClock, TimedEvent
from repro.pm.kernels import KernelCost, launch

__all__ = ["BinPlan", "bin_device", "binning_kernel_cost"]


def binning_kernel_cost(n_rows: int, op: ReductionOp) -> KernelCost:
    """Roofline work descriptor for binning ``n_rows`` realizations."""
    n_rows = int(n_rows)
    reads = 8 * n_rows  # flat indices
    if op.needs_values:
        reads += 8 * n_rows
    rmw = 16 * n_rows  # atomic read-modify-write on the bins
    if op is ReductionOp.AVERAGE:
        rmw *= 2  # sum and count grids both updated
    total = reads + rmw
    return KernelCost(
        flops=4.0 * n_rows,
        bytes_moved=float(total),
        atomic_fraction=(rmw / total) if total else 0.0,
    )


@dataclass(frozen=True)
class BinPlan:
    """The constants of binning one variable on tables of one shape.

    :meth:`of` works them out once per (reduction, device, row count);
    every step with that shape then only stages, launches, reads back
    and frees.  ``strategy`` is ``None`` on the host, which charges
    :func:`binning_kernel_cost`.
    """

    op: ReductionOp
    n_cells: int
    strategy: BinningStrategy | None
    cost: KernelCost
    shape: tuple[int, ...]
    fill: float
    kernel_name: str

    @classmethod
    def of(cls, op: ReductionOp, n_rows: int, n_cells: int, device_id: int,
           strategy: BinningStrategy = BinningStrategy.ATOMIC) -> "BinPlan":
        if device_id == HOST_DEVICE_ID:
            strategy, cost, kernel_name = None, binning_kernel_cost(n_rows, op), ""
        else:
            strategy = effective_strategy(strategy, n_cells, op)
            cost = strategy_kernel_cost(strategy, n_rows, n_cells, op)
            kernel_name = f"binning[{op.value},{strategy.value}]"
        return cls(
            op, int(n_cells), strategy, cost, op.accumulator_shape(n_cells),
            0.0 if op is ReductionOp.AVERAGE else float(op.identity),
            kernel_name,
        )


def bin_device(
    flat_idx: Buffer,
    values: Buffer | None,
    plan: BinPlan,
    device_id: int,
    stream: Stream | None = None,
    mode: StreamMode = StreamMode.SYNC,
    clock: SimClock | None = None,
) -> tuple[Buffer, TimedEvent]:
    """Bin one variable on a virtual device, as ``plan`` says.

    ``flat_idx`` (int64) and ``values`` (float64, unless COUNT) must be
    accessible on ``device_id``.  Returns the raw accumulator grid as a
    device buffer plus the kernel's completion event; callers finalize
    after any cross-rank merge.  If the memset or the kernel raises, the
    accumulator is freed before the error propagates.

    ``plan.strategy`` selects how races are resolved — the paper's
    atomic implementation by default, or one of the optimized strategies
    from :mod:`repro.binning.strategies` (its Section 5 future work).
    """
    op, n_cells, shape = plan.op, plan.n_cells, plan.shape
    if op.needs_values and values is None:
        raise BinningError(f"{op.value} reduction requires values")
    acc = Buffer.allocate(
        math.prod(shape), np.float64, Allocator.CUDA, device_id, stream,
        mode, f"bins[{op.value}]",
    )
    sorted_update = plan.strategy is BinningStrategy.SORTED

    def kernel(*arrays: np.ndarray) -> None:
        idx = arrays[0].astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= n_cells):
            raise BinningError(
                f"flat index out of range [0, {n_cells}): "
                f"[{idx.min()}, {idx.max()}]"
            )
        vals = arrays[1] if op.needs_values else None
        out = arrays[-1].reshape(shape)
        if not idx.size:
            return
        if sorted_update:
            apply_sorted_update(out, idx, vals, op)
        else:
            # ATOMIC and PRIVATIZED differ in cost, not in the scatter
            # result; privatization is a scheduling optimization.
            apply_binned_update(out, idx, vals, op, n_cells)

    cost = plan.cost
    try:
        # Device memset through the buffer API (charges the simulated
        # memset and keeps the raw storage behind the location tag).
        acc.fill(plan.fill)
        ev = launch(
            kernel,
            reads=(flat_idx,) if values is None else (flat_idx, values),
            writes=(acc,),
            device_id=device_id,
            flops=cost.flops,
            bytes_moved=cost.bytes_moved,
            atomic_fraction=cost.atomic_fraction,
            stream=stream,
            mode=mode,
            clock=clock,
            name=plan.kernel_name,
        )
    except BaseException:
        acc.free(clock)
        raise
    return acc, ev
