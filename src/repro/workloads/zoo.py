"""The zoo registry: named, seeded, trace-recordable scenarios.

Each entry pairs one workload with a canonical service configuration
and returns everything :func:`repro.trace.record_service_run` needs.
Four structurally different workloads cover the zoo proper —

- ``newton``     — compute-bound replicated N-body (regular traffic),
- ``stencil``    — static-hotspot stencil under adaptive repartition,
- ``particle``   — migrating-hotspot particles (irregular, adaptive),
- ``request-stream`` — bursty multi-tenant streams under admission
  control (elastic membership) —

and three small single-governor scenarios back the golden-trace
fixtures (``codec``, ``flow``, ``repartition``).

No wait in the data path consults the wall clock, so zoo traces are
byte-stable however the host schedules the rank threads.  The ``codec``
scenario ships zero-filled payloads so its golden bytes do not depend
on the local zlib build's encoding choices.
"""

from __future__ import annotations

import numpy as np

from repro.control.plan import ControlConfig
from repro.service.plan import PipelineSpec, ServiceConfig
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.units import gbs, us

__all__ = ["zoo_entry", "record_zoo"]


#: Retry budget of every flow of every scenario — the service
#: pipelines and the stencil / particle producers' peer-to-peer halo
#: flows alike — roomy enough that seeded loss never exhausts it.
_RETRY = RetryPolicy(max_retries=40)


def _single(name, transport, m, n):
    """A one-tenant collective service over ``n`` endpoints."""
    return ServiceConfig(pipelines=(
        PipelineSpec(
            name=name, mesh=name, shard_size=n, collective=True,
            transport=transport,
        ),
    ))


def _newton(seed: int, quick: bool) -> dict:
    from repro.newton.adaptor import NewtonDataAdaptor
    from repro.newton.solver import NewtonSolver, SolverConfig

    steps = 3 if quick else 6
    # device_id=None: each rank drives its own device.  Pinning both
    # ranks to one device would share its stream/pool, and the enqueue
    # order (hence simulated kernel starts) would follow the thread
    # scheduler — breaking byte-stable re-recording.
    solver_cfg = SolverConfig(
        n_bodies=96, dt=1e-3, softening=0.05, seed=seed,
        mass_range=(0.01, 0.03), device_id=None,
    )

    def producer_main(sim_comm, bridge):
        solver = NewtonSolver(solver_cfg, sim_comm)
        adaptor = NewtonDataAdaptor(solver)
        solver.run(steps, bridge=bridge, adaptor=adaptor)
        return solver.step_count

    transport = TransportConfig(
        compression="none", chunk_bytes=2048, retry=_RETRY,
    ).with_faults(drop=0.05, duplicate=0.02, seed=seed + 100)
    return {
        "config": _single("bodies", transport, 2, 1),
        "producer_main": producer_main,
        "m": 2,
        "n": 1,
        "control": ControlConfig.from_xml_attrs(
            {"seed": str(seed), "flow": "on"}
        ),
        "meta": {"workload": "newton", "seed": seed, "steps": steps},
    }


def _stencil(seed: int, quick: bool) -> dict:
    from repro.array.stencil import StencilConfig, stencil_producer

    steps = 8 if quick else 16
    stencil_cfg = StencilConfig(
        length=256, steps=steps, block_rows=16, compute_rate=2.0e6,
        hotspot=(0.0, 0.25), hotspot_cost=6.0, hotspot_from=1,
    )
    transport = TransportConfig(
        chunk_bytes=1024, retry=_RETRY,
    ).with_faults(drop=0.08, reorder=0.05, seed=seed + 200)
    return {
        "config": _single("stencil", transport, 2, 1),
        "producer_main": stencil_producer(
            stencil_cfg, adaptive=True, interval=4, mesh="stencil",
            transport=TransportConfig(retry=_RETRY),
        ),
        "m": 2,
        "n": 1,
        "control": ControlConfig.from_xml_attrs(
            {"seed": str(seed), "repartition": "on", "interval": "4"}
        ),
        "meta": {"workload": "stencil", "seed": seed, "steps": steps},
    }


def _particle(seed: int, quick: bool) -> dict:
    from repro.workloads.particle import ParticleConfig, particle_producer

    steps = 8 if quick else 16
    particle_cfg = ParticleConfig(
        n_particles=1024, length=128, steps=steps, seed=seed,
        block_rows=8, compute_rate=2.0e5,
    )
    transport = TransportConfig(
        chunk_bytes=1024, retry=_RETRY,
    ).with_faults(drop=0.08, duplicate=0.04, seed=seed + 300)
    return {
        "config": _single("particles", transport, 2, 1),
        "producer_main": particle_producer(
            particle_cfg, adaptive=True, interval=4, mesh="particles",
            transport=TransportConfig(retry=_RETRY),
        ),
        "m": 2,
        "n": 1,
        "control": ControlConfig.from_xml_attrs(
            {"seed": str(seed), "repartition": "on", "interval": "4"}
        ),
        "meta": {"workload": "particle", "seed": seed, "steps": steps},
    }


def _request_stream(seed: int, quick: bool) -> dict:
    from repro.workloads.request_stream import (
        RequestStreamConfig,
        request_stream_producer,
    )

    steps = 6 if quick else 8
    stream_cfg = RequestStreamConfig(steps=steps, seed=seed)
    transport = TransportConfig(
        chunk_bytes=1024, retry=_RETRY,
    ).with_faults(drop=0.06, seed=seed + 400)
    return {
        "config": stream_cfg.service_config(transport),
        "producer_main": request_stream_producer(stream_cfg),
        "m": 2,
        "n": 2,
        "control": ControlConfig.from_xml_attrs(
            {"seed": str(seed), "quota": "on", "interval": "2"}
        ),
        "meta": {"workload": "request-stream", "seed": seed, "steps": steps},
    }


def _codec(seed: int, quick: bool) -> dict:
    from repro.hamr.runtime import current_clock
    from repro.sensei.data_adaptor import TableDataAdaptor
    from repro.svtk.table import TableData

    steps = 4 if quick else 6

    def producer_main(sim_comm, bridge):
        clk = current_clock()
        for step in range(steps):
            clk.advance(0.25)
            # Zero-filled, size-varying payloads: highly compressible
            # and zlib-build-independent (see the module docstring).
            table = TableData("grid")
            table.add_host_column(
                "rho", np.zeros(2048 * (1 + step % 3), dtype=np.float64)
            )
            adaptor = TableDataAdaptor({"grid": table})
            adaptor.set_step(step, 0.25 * step)
            bridge.execute(adaptor)
        return step

    transport = TransportConfig(
        compression="adaptive", chunk_bytes=2048, retry=_RETRY,
    )
    return {
        "config": _single("grid", transport, 1, 1),
        "producer_main": producer_main,
        "m": 1,
        "n": 1,
        "cost": None,
        "control": ControlConfig.from_xml_attrs({"seed": str(seed)}),
        "meta": {"workload": "codec", "seed": seed, "steps": steps},
    }


def _flow(seed: int, quick: bool) -> dict:
    from repro.hamr.runtime import current_clock
    from repro.mpi.comm import CommCostModel
    from repro.sensei.data_adaptor import TableDataAdaptor
    from repro.svtk.table import TableData

    steps = 4 if quick else 6

    def producer_main(sim_comm, bridge):
        clk = current_clock()
        rows = 4096
        for step in range(steps):
            clk.advance(0.5)
            table = TableData("stream")
            table.add_host_column(
                "x", np.arange(rows, dtype=np.float64) + step
            )
            adaptor = TableDataAdaptor({"stream": table})
            adaptor.set_step(step, 0.5 * step)
            bridge.execute(adaptor)
        return step

    transport = TransportConfig(
        compression="none", chunk_bytes=1024, pipelined=True,
        retry=_RETRY,
    ).with_faults(
        drop=0.10, reorder=0.10, seed=seed + 500,
        congestion_bytes=16384, congestion_drop=0.5,
    )
    return {
        "config": _single("stream", transport, 1, 1),
        "producer_main": producer_main,
        "m": 1,
        "n": 1,
        "cost": CommCostModel(latency=us(5.0), bandwidth=gbs(0.05)),
        "control": ControlConfig.from_xml_attrs(
            {"seed": str(seed), "flow": "on"},
            flow_attrs={
                "min_credits": "2", "max_credits": "32",
                "min_chunk": "512", "max_chunk": "8192",
            },
        ),
        "meta": {"workload": "flow", "seed": seed, "steps": steps},
    }


def _repartition(seed: int, quick: bool) -> dict:
    entry = _stencil(seed, True)
    entry["meta"] = dict(entry["meta"], workload="repartition")
    return entry


_ENTRIES = {
    "newton": _newton,
    "stencil": _stencil,
    "particle": _particle,
    "request-stream": _request_stream,
    "codec": _codec,
    "flow": _flow,
    "repartition": _repartition,
}


def zoo_entry(name: str, seed: int = 0, quick: bool = True) -> dict:
    """The named scenario's ``record_service_run`` keyword set."""
    from repro.errors import ConfigError

    if name not in _ENTRIES:
        raise ConfigError(
            f"unknown zoo scenario {name!r}; "
            f"choose from {tuple(sorted(_ENTRIES))}"
        )
    return _ENTRIES[name](int(seed), bool(quick))


def record_zoo(name: str, seed: int = 0, quick: bool = True):
    """Record the named scenario from a fresh substrate.

    Returns ``(trace, producer_results, endpoints)``; the trace
    re-records byte-identically for any seed (the zoo's contract).
    """
    from repro.trace.harness import fresh_substrate
    from repro.trace.recorder import record_service_run

    entry = zoo_entry(name, seed=seed, quick=quick)
    fresh_substrate(f"zoo-{name}")
    return record_service_run(
        name,
        entry["config"],
        entry["producer_main"],
        m=entry["m"],
        n=entry["n"],
        cost=entry.get("cost"),
        control=entry.get("control"),
        meta=entry.get("meta"),
    )
