"""Run execution: paper-scale simulation and small-scale real runs.

``simulate`` composes the same cost terms the substrate charges —
roofline kernels, link transfers, alpha-beta collectives, contention
dilation — into per-iteration and total times for one Table 1 case at
paper scale (24M bodies, 512 GPUs).

``execute_small`` runs the genuine stack (Newton++ -> SENSEI ->
data binning) on one virtual node at laptop scale and extracts the same
metrics from the simulated clocks; it is the integration-level witness
that the model's code paths are the real ones.

Asynchronous-overlap model used by ``simulate``
-----------------------------------------------
Let ``S`` be the undilated solver time per iteration and ``A`` the
undilated in situ busy time.  While the analysis overlaps the solver,
both sides' work on the shared resources dilates by the contention
factor ``f``.  The analysis window is then ``W = A * f``; during that
window the solver progresses at rate ``1/f``, losing ``W * (1 - 1/f)``:

    S_eff     = S + W * (1 - 1/f)
    apparent  = deep_copy + launch + max(0, W - S_eff)   (back-pressure)
    iteration = apparent + S_eff        (asynchronous)
    iteration = S + A                   (lockstep)

This reproduces both halves of the paper's Section 4.4 finding: the
solver is slower under asynchronous execution in every placement, yet
the total run time is lower because ``W*(1-1/f) + apparent < A``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binning.cuda import binning_kernel_cost
from repro.binning.reduce import ReductionOp
from repro.binning.strategies import BinningStrategy, strategy_kernel_cost
from repro.harness.calibrate import (
    PaperWorkload,
    SmallWorkload,
    harness_contention,
    overlap_resources,
)
from repro.harness.spec import InSituPlacement, RunSpec
from repro.hw.contention import ContentionModel
from repro.hw.device import HostCPU, VirtualDevice
from repro.mpi.comm import CommCostModel, run_spmd
from repro.newton.forces import pair_flops
from repro.sensei.execution import ExecutionMethod
from repro.units import ms, us

__all__ = ["RunResult", "simulate", "execute_small"]

#: Thread-launch overhead for the asynchronous hand-off.
THREAD_LAUNCH = us(100.0)


@dataclass(frozen=True)
class RunResult:
    """Metrics for one run, in simulated seconds."""

    spec: RunSpec
    steps: int
    n_bodies: int
    total_time: float
    solver_per_iter: float
    insitu_apparent_per_iter: float
    insitu_actual_per_iter: float
    data_movement_per_iter: float
    mode: str  # "model" (paper scale) or "stack" (real small-scale run)

    @property
    def iter_time(self) -> float:
        """Average end-to-end time per iteration."""
        return self.solver_per_iter + self.insitu_apparent_per_iter

    @property
    def label(self) -> str:
        return self.spec.label


def simulate(
    spec: RunSpec,
    workload: PaperWorkload | None = None,
    contention: ContentionModel | None = None,
) -> RunResult:
    """Model one Table 1 case at paper scale."""
    from repro.hw.node import VirtualNode

    w = workload if workload is not None else PaperWorkload()
    model = contention if contention is not None else harness_contention()
    node = VirtualNode(w.node)
    gpu = VirtualDevice(0, w.node.device)
    host = HostCPU(w.node.host)
    comm = CommCostModel()

    ranks = spec.total_ranks
    n_local = w.n_bodies / ranks
    table_bytes = 7 * 8.0 * n_local  # x,y,z,vx,vy,vz,mass as float64

    # ---- solver per iteration -------------------------------------------------
    # One force evaluation per KDK step (end-of-step kick reuses it next
    # step), on the rank's dedicated simulation GPU.
    solver_flops = pair_flops(n_local, w.n_bodies)
    solver_bytes = 8.0 * (7 * n_local + 4 * w.n_bodies)
    t_solver_kernel = gpu.kernel_time(flops=solver_flops, bytes_moved=solver_bytes)
    # Direct n-body needs every source: allgather of (x, y, z, mass).
    t_solver_comm = comm.collective(int(32 * w.n_bodies), ranks)
    s_time = t_solver_kernel + t_solver_comm

    # ---- in situ per iteration (undilated busy time) ----------------------------
    on_host = spec.insitu_on_host
    same_device = spec.placement is InSituPlacement.SAME_DEVICE
    # Dedicated devices can be oversubscribed: 3 ranks share 1 in situ
    # GPU in the one-dedicated-device placement.
    if spec.insitu_gpus_per_node:
        congestion = spec.ranks_per_node / spec.insitu_gpus_per_node
    else:
        congestion = 1.0

    # Data staging to the analysis location, once per iteration:
    # zero-copy for the same-device lockstep case, D2H for host
    # placement, D2D over NVLink for dedicated devices.
    if same_device:
        movement = 0.0
    elif on_host:
        movement = node.transfer_time(int(table_bytes), 0, -1)
    else:
        movement = node.transfer_time(int(table_bytes), 0, 1)

    # The analysis side of the HOST placement shares the node's cores
    # among the node's ranks.
    host_cores = max(1, w.node.host.cores // spec.ranks_per_node)

    strategy = BinningStrategy.parse(w.binning_strategy)
    per_op_cost = strategy_kernel_cost(
        strategy, int(n_local), w.n_cells, ReductionOp.SUM
    )
    if on_host:
        # The CPU implementation is the scatter (atomic-free) reference
        # regardless of the device strategy.
        cpu_cost = binning_kernel_cost(int(n_local), ReductionOp.SUM)
        t_bin = host.kernel_time(
            flops=cpu_cost.flops,
            bytes_moved=cpu_cost.bytes_moved,
            atomic_fraction=cpu_cost.atomic_fraction,
            cores=host_cores,
        )
    else:
        t_bin = gpu.kernel_time(
            flops=per_op_cost.flops,
            bytes_moved=per_op_cost.bytes_moved,
            atomic_fraction=per_op_cost.atomic_fraction,
        ) * congestion

    # Each of the 90 operations merges its grid globally; each of the 9
    # operator instances additionally computes on-the-fly bounds (4
    # scalar allreduces) and a count-grid merge.
    t_grid_reduce = comm.collective(w.n_cells * 8, ranks)
    t_bounds = 4 * comm.collective(8, ranks)
    per_system = t_bounds + t_grid_reduce + w.n_variables * (
        w.insitu_op_overhead + t_bin + t_grid_reduce
    )
    a_time = movement + w.n_coordinate_systems * per_system

    # ---- composition ---------------------------------------------------------------
    if spec.method is ExecutionMethod.LOCKSTEP:
        solver_eff = s_time
        apparent = a_time
        actual = a_time
        iter_time = s_time + a_time
        tail = 0.0
    else:
        f = model.combined(overlap_resources(on_host, same_device))
        window = a_time * f
        solver_eff = s_time + window * (1.0 - 1.0 / f)
        deep_copy = (
            w.node.link.latency + 2.0 * table_bytes / w.node.device.mem_bandwidth
        )
        apparent = deep_copy + THREAD_LAUNCH + max(0.0, window - solver_eff)
        iter_time = apparent + solver_eff
        actual = window
        tail = window  # the final step's analysis drains after the loop

    total = w.init_time + w.steps * iter_time + tail + w.finalize_time
    return RunResult(
        spec=spec,
        steps=w.steps,
        n_bodies=w.n_bodies,
        total_time=total,
        solver_per_iter=solver_eff,
        insitu_apparent_per_iter=apparent,
        insitu_actual_per_iter=actual,
        data_movement_per_iter=movement,
        mode="model",
    )


# ---------------------------------------------------------------------------
# Small-scale execution of the real stack.
# ---------------------------------------------------------------------------

#: Coordinate systems used by the small runs, in paper order (spatial
#: planes first, then phase-space and velocity-space planes).
COORD_SYSTEMS = [
    ("x", "y"), ("x", "z"), ("y", "z"),
    ("x", "vx"), ("y", "vy"), ("z", "vz"),
    ("vx", "vy"), ("vx", "vz"), ("vy", "vz"),
]

#: Binned variables, as (column, reduction) pairs.
VARIABLES = [
    ("mass", ReductionOp.SUM),
    ("vx", ReductionOp.AVERAGE),
    ("vy", ReductionOp.MIN),
    ("vz", ReductionOp.MAX),
    ("mass", ReductionOp.AVERAGE),
    ("vx", ReductionOp.MIN),
    ("vy", ReductionOp.MAX),
    ("vz", ReductionOp.SUM),
    ("mass", ReductionOp.MIN),
    ("mass", ReductionOp.MAX),
]


def _rank_main(comm, spec: RunSpec, w: SmallWorkload):
    from repro.binning.axes import AxisSpec
    from repro.binning.operator import BinRequest
    from repro.hamr.runtime import current_clock
    from repro.newton.adaptor import NewtonDataAdaptor
    from repro.newton.solver import NewtonSolver, SolverConfig
    from repro.sensei.backends.binning import BinningAnalysis
    from repro.sensei.bridge import Bridge

    solver = NewtonSolver(
        SolverConfig(
            n_bodies=w.n_bodies,
            dt=w.dt,
            softening=w.softening,
            seed=w.seed,
            mass_range=w.mass_range,
        ),
        comm,
    )
    placement = spec.insitu_device_placement()
    analyses = []
    for a, b in COORD_SYSTEMS[: w.n_coordinate_systems]:
        requests = [
            BinRequest(op, var) for var, op in VARIABLES[: w.n_variables]
        ]
        analysis = BinningAnalysis(
            "bodies",
            [AxisSpec(a, w.bins[0]), AxisSpec(b, w.bins[1])],
            requests,
            name=f"binning[{a},{b}]",
        )
        analysis.set_placement(placement)
        analysis.set_execution_method(spec.method)
        analyses.append(analysis)

    bridge = Bridge()
    bridge.initialize(comm, analyses=analyses)
    adaptor = NewtonDataAdaptor(solver)
    solver.run(w.steps, bridge=bridge, adaptor=adaptor)
    bridge.finalize()
    comm.barrier()

    total = current_clock().now
    solver_per_iter = solver.mean_step_time
    apparent = bridge.total_apparent_time / max(1, w.steps)
    actual = bridge.total_actual_time / max(1, w.steps)
    sample = analyses[0].latest
    total_binned = (
        float(sample.cell_array_as_grid("count").sum()) if sample is not None else 0.0
    )
    return total, solver_per_iter, apparent, actual, total_binned


def execute_small(
    spec: RunSpec,
    workload: SmallWorkload | None = None,
    node_spec=None,
) -> RunResult:
    """Run the real stack for one case on a single virtual node.

    The node gets ``spec.gpus_per_node`` devices; ``spec.ranks_per_node``
    rank threads run Newton++ with the case's placement and execution
    method.  Metrics come from the substrate's simulated clocks.
    ``node_spec`` overrides the node's hardware (e.g.
    :func:`repro.harness.calibrate.scaled_node_spec` for runs whose
    simulated solver should dominate at laptop body counts).
    """
    from repro.hw.node import VirtualNode, set_node
    from repro.hw.spec import NodeSpec

    w = workload if workload is not None else SmallWorkload()
    base = node_spec if node_spec is not None else NodeSpec()
    # A fresh node: it owns every stream timeline, so none of the
    # previous case's simulated time carries into this one.
    set_node(VirtualNode(base.with_devices(spec.gpus_per_node)))
    outs = run_spmd(spec.ranks_per_node, _rank_main, spec, w)

    total = max(o[0] for o in outs)
    solver = sum(o[1] for o in outs) / len(outs)
    apparent = sum(o[2] for o in outs) / len(outs)
    actual = sum(o[3] for o in outs) / len(outs)
    binned = outs[0][4]
    if binned != w.n_bodies:
        raise AssertionError(
            f"sanity check failed: binned {binned} rows, expected {w.n_bodies}"
        )
    return RunResult(
        spec=spec,
        steps=w.steps,
        n_bodies=w.n_bodies,
        total_time=total,
        solver_per_iter=solver,
        insitu_apparent_per_iter=apparent,
        insitu_actual_per_iter=actual,
        data_movement_per_iter=0.0,
        mode="stack",
    )
