"""The paper's evaluation as numbers: the Table 1 cases at paper scale,
the four ablation sweeps, the scaling study and the host-link copies.
Each returns ``{case: {field: value}}`` in sweep order, the shape
``paper_golden.json`` stores, so the crossover tests assert on exactly
the numbers the golden pins and EXPERIMENTS.md prints.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.binning.reduce import ReductionOp
from repro.binning.strategies import BinningStrategy, strategy_kernel_cost
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
from repro.hamr.buffer import Buffer
from repro.hamr.copier import transfer
from repro.harness.calibrate import PaperWorkload
from repro.harness.runner import simulate
from repro.harness.scaling import parallel_efficiency, strong_scaling
from repro.harness.spec import InSituPlacement, RunSpec, table1_matrix
from repro.hw.contention import ContentionModel, SharedResource
from repro.hw.device import HostCPU, VirtualDevice
from repro.hw.node import get_node
from repro.hw.spec import DeviceSpec
from repro.sensei.execution import ExecutionMethod
from repro.units import KiB, MiB, ms

L, A = ExecutionMethod.LOCKSTEP, ExecutionMethod.ASYNCHRONOUS
RESULT_FIELDS = ("total_time", "solver_per_iter", "insitu_apparent_per_iter",
                 "insitu_actual_per_iter", "data_movement_per_iter")
PENALTIES = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 48.0)
FACTORS = (1.0, 1.2, 1.3, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)  # 1.3: the largest default
OVERHEADS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
LOADS_MS = (5.0, 20.0, 50.0, 100.0, 200.0, 400.0)
NODES = (32, 64, 128, 256, 512)
SHARED = ("all on host", "on same device")
DEDICATED = ("1 dedicated device", "2 dedicated devices")


def workload(overhead_ms: float) -> PaperWorkload:
    return dataclasses.replace(PaperWorkload(), insitu_op_overhead=ms(overhead_ms))


def table1_cases(w: PaperWorkload | None = None) -> dict:
    """The five ``RunResult`` floats of each paper-scale Table 1 case."""
    return {r.label: {f: getattr(r, f) for f in RESULT_FIELDS}
            for r in (simulate(s, w) for s in table1_matrix())}


def atomic_sweep() -> dict:
    """GPU atomic binning of 1M rows onto 256² cells against a rank's
    16-of-64-core CPU share, by atomic-update penalty."""
    def cost(strategy):
        c = strategy_kernel_cost(strategy, 1_000_000, 256 * 256, ReductionOp.SUM)
        return dict(flops=c.flops, bytes_moved=c.bytes_moved, atomic_fraction=c.atomic_fraction)

    def gpu(penalty, strategy=BinningStrategy.ATOMIC):
        spec = dataclasses.replace(DeviceSpec(), atomic_update_penalty=penalty)
        return VirtualDevice(0, spec).kernel_time(**cost(strategy))

    cpu = HostCPU().kernel_time(**cost(BinningStrategy.ATOMIC), cores=16)
    out = {f"penalty {p:g}": {"gpu_atomic_s": gpu(p)} for p in PENALTIES}
    out["crossover"] = {
        "cpu_s": cpu,
        "gpu_sorted_s": gpu(DeviceSpec().atomic_update_penalty, BinningStrategy.SORTED),
        "penalty": next((p for p in PENALTIES if gpu(p) >= cpu), math.inf),
    }
    return out


def contention_sweep() -> dict:
    """Async saving per placement under a uniform contention factor."""
    out = {}
    for f in FACTORS:
        model = ContentionModel(factors=dict.fromkeys(SharedResource, f))
        out[f"factor {f:g}"] = {p.value: 1.0 - simulate(RunSpec(p, A), None, model).total_time
                                / simulate(RunSpec(p, L), None, model).total_time
                                for p in InSituPlacement}
    out["break-even"] = {p: next((f for f in FACTORS if out[f"factor {f:g}"][p] <= 0), math.inf)
                         for p in (*SHARED, *DEDICATED)}
    return out


def overhead_sweep() -> dict:
    """The host placement's lockstep in situ share and async saving, by
    ``insitu_op_overhead``."""
    out = {}
    for o in OVERHEADS_MS:
        cases = table1_cases(workload(o))
        lock, asyn = cases["all on host / lockstep"], cases["all on host / asynchronous"]
        insitu = lock["insitu_apparent_per_iter"]
        out[f"{o:g} ms"] = {"insitu_share": insitu / (lock["solver_per_iter"] + insitu),
                            "async_saving": 1.0 - asyn["total_time"] / lock["total_time"]}
    return out


def dedicated_sweep() -> dict:
    """Asynchronous totals per placement by in situ load, and the best
    dedicated over the best shared placement."""
    out = {}
    for o in LOADS_MS:
        t = {p.value: simulate(RunSpec(p, A), workload(o)).total_time for p in InSituPlacement}
        t["ratio"] = min(t[p] for p in DEDICATED) / min(t[p] for p in SHARED)
        out[f"{o:g} ms"] = t
    return out


def scaling_sweep() -> dict:
    """Strong scaling of the same-device placement over ``NODES``."""
    lock = strong_scaling(InSituPlacement.SAME_DEVICE, L, NODES)
    asyn = strong_scaling(InSituPlacement.SAME_DEVICE, A, NODES)
    return {f"{pl.nodes} nodes": {
        "iter_lockstep": pl.iter_time, "iter_async": pa.iter_time,
        "async_saving": 1.0 - pa.result.total_time / pl.result.total_time,
        "efficiency": e,
    } for pl, pa, e in zip(lock, asyn, parallel_efficiency(lock))}


def machine_copies() -> dict:
    """The charged duration of ``hamr`` copies through page-locked and
    pageable host buffers, and device to device, at three sizes."""
    def charged(src, device_id, allocator, name):
        transfer(src, device_id, allocator=allocator, name=name)
        (ev,) = [e for tl in get_node().timelines() for e in tl.events
                 if e.name == f"copy {src.name}->{name}"]
        return ev.end - ev.start

    out = {}
    for n in (4 * KiB, 1 * MiB, 16 * MiB):
        dev = Buffer.allocate(n, np.uint8, Allocator.CUDA, device_id=0, name=f"dev{n}")
        row = out[f"{n} B"] = {}
        for kind, alloc in (("pinned", Allocator.CUDA_HOST), ("pageable", Allocator.MALLOC)):
            host = Buffer.allocate(n, np.uint8, alloc, name=f"{kind}{n}")
            row[f"h2d_{kind}"] = charged(host, 0, Allocator.CUDA, f"h2d-{kind}{n}")
            row[f"d2h_{kind}"] = charged(dev, HOST_DEVICE_ID, alloc, f"d2h-{kind}{n}")
        row["d2d"] = charged(dev, 1, Allocator.CUDA, f"d2d{n}")
    return out
