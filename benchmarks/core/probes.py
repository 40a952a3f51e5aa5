"""Isolated layer probes: one public call per layer, timed in a loop.

Each probe drives a layer of ``src/repro`` through its public
functions only, from a fresh substrate, and reports the median of
five trials (three with ``--quick``).  A rate is work per *wall*
second; the ``*_sim_s`` probes read the simulated clock instead and
repeat exactly.  Sizes that are part of a metric's name (``r64``,
``r8``) never change with ``--quick``; loop counts do.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.hamr.runtime import current_clock
from repro.mpi.comm import SelfCommunicator, run_spmd
from repro.svtk.table import TableData
from repro.transport.config import TransportConfig
from repro.units import KiB
from workloads import (
    PATIENT,
    CountingAnalysis,
    derive,
    quantised_field,
    scrub,
)

MiB = 1024 * 1024


def _median(trials: int, fn) -> float:
    """Median of ``fn()`` over ``trials`` fresh-substrate trials."""
    values = []
    for _ in range(trials):
        scrub("probe")
        values.append(fn())
    return statistics.median(values)


def _rate(count: int, fn) -> float:
    """``count`` units of work per wall second of ``fn()``."""
    started = time.perf_counter()
    fn()
    return count / (time.perf_counter() - started)


def _field_table(name: str, rows: int, seed: int) -> TableData:
    """One quantised float64 column, compressible like a smooth field."""
    table = TableData(name)
    table.add_host_column("rho", quantised_field(rows, seed))
    return table


# -- hw / hamr / pm / svtk -----------------------------------------------------


def probe_hw(trials, scale, seed):
    from repro.hw.clock import Timeline

    n = 50_000 // scale

    def trial():
        timeline = Timeline("probe")

        def loop():
            for i in range(n):
                timeline.schedule(i * 1e-6, 1e-6)

        return _rate(n, loop)

    return {"hw.timeline_schedule_per_s": _median(trials, trial)}


def probe_hamr(trials, scale, seed):
    from repro.hamr.allocator import Allocator, PMKind
    from repro.hamr.buffer import Buffer
    from repro.hamr.copier import transfer

    n_alloc, n_copy = 2000 // scale, 40 // scale

    def alloc_free():
        def loop():
            for _ in range(n_alloc):
                Buffer.allocate(
                    1024, allocator=Allocator.CUDA_ASYNC, device_id=0,
                ).free()

        return _rate(n_alloc, loop)

    def copy_rate():
        src = Buffer.allocate(MiB // 8, allocator=Allocator.MALLOC)

        def loop():
            for _ in range(n_copy):
                transfer(src, 0, pm=PMKind.CUDA).free()

        return _rate(n_copy, loop)

    def copy_sim():
        src = Buffer.allocate(MiB // 8, allocator=Allocator.MALLOC)
        clock = current_clock()
        src.synchronize(clock)
        t0 = clock.now
        transfer(src, 0, pm=PMKind.CUDA).synchronize(clock)
        return clock.now - t0

    return {
        "hamr.alloc_free_per_s": _median(trials, alloc_free),
        "hamr.copy_per_s": _median(trials, copy_rate),
        "hamr.copy_sim_s": _median(1, copy_sim),
    }


def probe_pm(trials, scale, seed):
    from repro.pm.kernels import launch

    n = 5000 // scale

    def trial():
        def loop():
            for _ in range(n):
                launch(lambda: None, device_id=0)

        return _rate(n, loop)

    return {"pm.launch_per_s": _median(trials, trial)}


def probe_svtk(trials, scale, seed):
    from repro.hamr.allocator import Allocator
    from repro.svtk.hamr_array import HAMRDataArray

    n = 500 // scale

    def trial():
        array = HAMRDataArray.new(
            "x", 4096, allocator=Allocator.CUDA, device_id=0,
        )

        def loop():
            for _ in range(n):
                with array.get_host_accessible() as view:
                    view.synchronize()
                    view.get()

        return _rate(n, loop)

    return {"svtk.hda_access_per_s": _median(trials, trial)}


# -- mpi -----------------------------------------------------------------------


def probe_mpi(trials, scale, seed):
    n_pingpong, n_r8, n_r64 = 2000 // scale, 300 // scale, 40 // scale

    def spawn_join():
        started = time.perf_counter()
        run_spmd(64, lambda comm: None)
        return 1e3 * (time.perf_counter() - started)

    def pingpong():
        def main(comm):
            comm.barrier()
            started = time.perf_counter()
            for i in range(n_pingpong):
                if comm.rank == 0:
                    comm.send(i, 1)
                    comm.recv(1)
                else:
                    comm.recv(0)
                    comm.send(i, 0)
            return 2 * n_pingpong / (time.perf_counter() - started)

        return run_spmd(2, main)[0]

    def allreduce(size, n):
        def main(comm):
            vector = np.ones(8)
            comm.barrier()
            started = time.perf_counter()
            for _ in range(n):
                comm.allreduce(vector)
            return n / (time.perf_counter() - started)

        return run_spmd(size, main)[0]

    return {
        "mpi.spawn_join_ms_r64": _median(trials, spawn_join),
        "mpi.p2p_msgs_per_s_r2": _median(trials, pingpong),
        "mpi.allreduce_per_s_r8": _median(trials, lambda: allreduce(8, n_r8)),
        "mpi.allreduce_per_s_r64": _median(
            trials, lambda: allreduce(64, n_r64)
        ),
    }


# -- newton / binning / sensei / harness ---------------------------------------


def probe_newton(trials, scale, seed):
    from repro.newton.solver import NewtonSolver, SolverConfig

    bodies, steps = 2048, 1

    def trial():
        solver = NewtonSolver(SolverConfig(
            n_bodies=bodies, seed=derive(seed, "probe-newton"),
            softening=0.05, mass_range=(0.01, 0.03),
        ))
        solver.step()  # the first step also evaluates the initial forces

        def loop():
            for _ in range(steps):
                solver.step()

        return _rate(steps * bodies * bodies, loop)

    return {"newton.pair_interactions_per_s": _median(trials, trial)}


def probe_binning(trials, scale, seed):
    from repro.binning.axes import AxisSpec
    from repro.binning.operator import BinRequest, DataBinner
    from repro.binning.reduce import ReductionOp
    from repro.hamr.allocator import HOST_DEVICE_ID, Allocator
    from repro.svtk.hamr_array import HAMRDataArray

    rows = (1 << 20) // scale
    rng = np.random.default_rng(derive(seed, "probe-binning"))
    columns = {name: rng.random(rows) for name in ("x", "y", "mass")}
    binner = DataBinner(
        [AxisSpec("x", 256), AxisSpec("y", 256)],
        [BinRequest(ReductionOp.SUM, "mass")],
    )
    sim_s = []

    def on(device_id):
        def trial():
            table = TableData("bodies")
            for name, values in columns.items():
                if device_id == HOST_DEVICE_ID:
                    table.add_host_column(name, values)
                else:
                    table.add_column(HAMRDataArray.zero_copy(
                        name, values, allocator=Allocator.CUDA,
                        device_id=device_id, owner=values,
                    ))
            clock = current_clock()
            t0 = clock.now
            rate = _rate(rows, lambda: binner.execute(
                table, device_id=device_id,
            ))
            if device_id != HOST_DEVICE_ID:
                sim_s.append(clock.now - t0)
            return rate

        return trial

    return {
        "binning.rows_per_s_cpu": _median(trials, on(HOST_DEVICE_ID)),
        "binning.rows_per_s_cuda": _median(trials, on(0)),
        "binning.sim_s_per_op": statistics.median(sim_s),
    }


def probe_sensei(trials, scale, seed):
    from repro.sensei.bridge import Bridge
    from repro.sensei.data_adaptor import TableDataAdaptor

    n = 300 // scale
    table = TableData("probe")
    table.add_host_column("x", np.zeros(KiB // 8))

    def method(name):
        def trial():
            analysis = CountingAnalysis("probe")
            analysis.set_execution_method(name)
            bridge = Bridge()
            bridge.initialize(SelfCommunicator(), analyses=[analysis])
            adaptor = TableDataAdaptor({"probe": table})
            started = time.perf_counter()
            for step in range(n):
                adaptor.set_step(step, step * 1e-3)
                bridge.execute(adaptor)
            bridge.finalize()
            return 1e6 * (time.perf_counter() - started) / n

        return trial

    return {
        "sensei.execute_us_lockstep": _median(trials, method("lockstep")),
        "sensei.execute_us_async": _median(trials, method("asynchronous")),
    }


def probe_harness(trials, scale, seed):
    from repro.harness import simulate, table1_matrix

    n = 40 // scale
    cases = table1_matrix()

    def trial():
        started = time.perf_counter()
        for _ in range(n):
            for case in cases:
                simulate(case)
        return 1e6 * (time.perf_counter() - started) / n

    return {"harness.simulate_matrix_us": _median(trials, trial)}


# -- transport / service / array / control / trace -----------------------------


def probe_wire(trials, scale, seed):
    from repro.transport.wire import decode_step, encode_step

    table = _field_table("field", MiB // scale, derive(seed, "probe-wire"))
    mib = 8.0 / scale
    out = {}
    for codec in ("none", "zlib"):
        chunks = encode_step(table, 0, 0.0, codec, 64 * KiB)
        out[f"transport.encode_mib_per_s.{codec}"] = _median(
            trials, lambda c=codec: _rate(
                mib, lambda: encode_step(table, 0, 0.0, c, 64 * KiB)
            ),
        )
        out[f"transport.decode_mib_per_s.{codec}"] = _median(
            trials, lambda ch=chunks: _rate(mib, lambda: decode_step(ch)),
        )
    return out


def probe_channel(trials, scale, seed):
    from repro.transport.channel import ReliableReceiver, ReliableSender

    steps = 8 // scale or 1
    table = _field_table("frames", 32 * KiB, derive(seed, "probe-frames"))
    base = TransportConfig(chunk_bytes=4 * KiB, retry=PATIENT)

    def flow(config):
        def main(comm):
            if comm.rank == 1:
                receiver = ReliableReceiver(comm, 0, config)
                while receiver.receive_step() is not None:
                    pass
                return None
            sender = ReliableSender(comm, 1, config)
            started = time.perf_counter()
            for step in range(steps):
                sender.send_step(step, step * 1e-3, table)
            elapsed = time.perf_counter() - started
            sender.close()
            return sender.metrics.chunks_sent / elapsed

        return lambda: run_spmd(2, main)[0]

    lossy = base.with_faults(drop=0.10, seed=derive(seed, "probe-drop10"))
    return {
        "transport.frames_per_s_clean": _median(trials, flow(base)),
        "transport.frames_per_s_drop10": _median(trials, flow(lossy)),
    }


def probe_service(trials, scale, seed):
    from repro.service.plan import (
        PipelineSpec,
        ServiceConfig,
        ShardMap,
        route_producers,
    )

    n = 200 // scale
    config = ServiceConfig(pipelines=tuple(
        PipelineSpec(
            name=f"t{i}", weight=8.0 if i == 0 else 1.0,
            ranks=tuple(range(8 * i, 8 * i + 8)), collective=(i == 0),
        )
        for i in range(8)
    ))

    def trial():
        started = time.perf_counter()
        for _ in range(n):
            shards = ShardMap.initial(config, 4)
            for spec in config.pipelines:
                route_producers(
                    spec, shards.shard(spec.name), spec.producers(64)
                )
        return 1e6 * (time.perf_counter() - started) / n

    return {"service.plan_us": _median(trials, trial)}


def probe_array(trials, scale, seed):
    from repro.array.array import DistributedArray
    from repro.array.halo import HaloExchanger

    exchanges, rotations = 40 // scale, 4 // scale or 1
    transport = TransportConfig(retry=PATIENT)

    def halo():
        def main(comm):
            array = DistributedArray.create(
                comm, 4096, block_rows=128, halo=1, name="probe",
            )
            exchanger = HaloExchanger(comm, transport, name="probe")
            comm.barrier()
            started = time.perf_counter()
            for step in range(exchanges):
                exchanger.exchange(array, step)
            elapsed = time.perf_counter() - started
            exchanger.close()
            array.close()
            return exchanges / elapsed

        return run_spmd(4, main)[0]

    def repartition():
        length = 65536

        def main(comm):
            array = DistributedArray.create(
                comm, length, block_rows=512, name="probe",
            )
            exchanger = HaloExchanger(comm, transport, name="probe")
            comm.barrier()
            started = time.perf_counter()
            for event in range(rotations):
                owners = [
                    (o + 1) % comm.size for o in array.partition.owners
                ]
                array.repartition(owners, exchanger, event)
            elapsed = time.perf_counter() - started
            exchanger.close()
            array.close()
            return rotations * length * 8 / MiB / elapsed

        return run_spmd(4, main)[0]

    return {
        "array.halo_exchanges_per_s_r4": _median(trials, halo),
        "array.repartition_mib_per_s": _median(trials, repartition),
    }


def probe_control(trials, scale, seed):
    from repro.control.plan import ControlConfig, ControlPlane
    from repro.transport.channel import ReliableSender

    n = 1000 // scale
    table = _field_table("tap", 4 * KiB, derive(seed, "probe-control"))
    config = ControlConfig.from_xml_attrs({
        "flow": "on", "interval": "1",
        "seed": str(derive(seed, "probe-control")),
    })

    def trial():
        plane = ControlPlane(config)
        sender = ReliableSender(
            SelfCommunicator(), 1,
            TransportConfig(compression="adaptive", retry=PATIENT),
        )
        started = time.perf_counter()
        for step in range(n):
            # A synthetic observation: the counters a real step moves.
            m = sender.metrics
            m.raw_bytes += 32 * KiB
            m.wire_bytes += 32 * KiB
            m.bytes_out += 33 * KiB
            m.chunks_sent += 8
            m.retries += step % 3 == 0
            m.observe_ack_latency(4e-5 + 1e-6 * (step % 7))
            plane.observe_transport_step(sender, step, 1e-3, table=table)
        return 1e6 * (time.perf_counter() - started) / n

    return {"control.observe_decide_us": _median(trials, trial)}


def probe_trace(trials, scale, seed):
    from repro.trace.format import Trace
    from repro.workloads import record_zoo

    scrub("probe")
    trace = record_zoo(
        "request-stream", seed=derive(seed, "probe-trace") % 1000, quick=True,
    )[0]
    text = trace.to_jsonl()
    mib = len(text) / MiB
    n = 8 // scale or 1

    def to_jsonl():
        for _ in range(n):
            trace.to_jsonl()

    def from_jsonl():
        for _ in range(n):
            Trace.from_jsonl(text)

    return {
        "trace.to_jsonl_mib_per_s": _median(
            trials, lambda: _rate(n * mib, to_jsonl)
        ),
        "trace.from_jsonl_mib_per_s": _median(
            trials, lambda: _rate(n * mib, from_jsonl)
        ),
    }


# -- analysis ------------------------------------------------------------------

#: The lint corpus is generated from these templates, never taken from
#: ``src/`` (whose size changes with every PR).  Plain-text templates,
#: so the repository's own lint run does not see them as code.
_LINT_TEMPLATES = (
    '''"""Generated module {i}: buffers and kernels."""
import numpy as np
from repro.hamr.buffer import Buffer
from repro.hamr.allocator import Allocator
from repro.pm.kernels import launch


def stage_{i}(n):
    src = Buffer.allocate(n, allocator=Allocator.MALLOC, name="src{i}")
    dst = Buffer.allocate(n, allocator=Allocator.CUDA, device_id=0)
    launch(lambda a, b: np.copyto(b, a), reads=[src], writes=[dst],
           device_id=0, bytes_moved=16.0 * n)
    dst.synchronize()
    total = float(np.sum(dst.data))
    src.free()
    dst.free()
    return total
''',
    '''"""Generated module {i}: an SPMD reduction."""
from repro.mpi.comm import run_spmd
from repro.hamr.runtime import current_clock


def _main_{i}(comm):
    clock = current_clock()
    clock.advance(1e-3 * (comm.rank + {i}))
    total = comm.allreduce(comm.rank, op="sum")
    comm.barrier()
    return total, clock.now


def run_{i}(ranks=4):
    return run_spmd(ranks, _main_{i})
''',
    '''"""Generated module {i}: a table through the wire codec."""
import numpy as np
from repro.svtk.table import TableData
from repro.transport.wire import decode_step, encode_step


def roundtrip_{i}(rows={i}00):
    table = TableData("t{i}")
    table.add_host_column("x", np.arange(rows, dtype=np.float64))
    chunks = encode_step(table, {i}, 0.0, "zlib", 4096)
    step, _time, columns = decode_step(chunks)
    return step, columns["x"].sum()
''',
)


def probe_analysis(trials, scale, seed):
    from repro.analysis import lint_paths

    files = 36 // scale
    scratch = Path(__file__).resolve().parent / "results"
    scratch.mkdir(exist_ok=True)
    corpus = Path(tempfile.mkdtemp(prefix="lint-corpus-", dir=scratch))
    try:
        for i in range(files):
            template = _LINT_TEMPLATES[i % len(_LINT_TEMPLATES)]
            (corpus / f"gen_{i:03d}.py").write_text(template.format(i=i + 1))
        rate = _median(trials, lambda: _rate(
            files, lambda: lint_paths([corpus], jobs=1)
        ))
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    return {"analysis.lint_files_per_s": rate}


PROBES = (
    probe_hw, probe_hamr, probe_pm, probe_svtk, probe_mpi, probe_newton,
    probe_binning, probe_sensei, probe_harness, probe_wire, probe_channel,
    probe_service, probe_array, probe_control, probe_trace, probe_analysis,
)


def run_all(seed: int, quick: bool) -> dict:
    """Every probe's metrics, by per-layer metric name."""
    trials, scale = (3, 4) if quick else (5, 1)
    out = {}
    for probe in PROBES:
        out.update(probe(trials, scale, seed))
    return out
