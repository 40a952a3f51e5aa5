"""The workload zoo: structurally diverse seeded producers.

Every workload here is deterministic by construction (seeded
``random.Random`` state machines, replicated numpy float64 numerics,
simulated clocks) and runs as a service producer through
:func:`repro.service.run_service`; a workload that owns a distributed
array (an :class:`~repro.array.coordinate.ArrayWorkload`) also runs
standalone and under the array plane's adaptive repartitioner.  The zoo (:mod:`repro.workloads.zoo`) names canonical
configurations of each for trace recording and the golden-trace CI
gate.

- :mod:`repro.workloads.particle` — irregular/adaptive particle
  dynamics with a migrating hotspot (load skew that *moves*);
- :mod:`repro.workloads.request_stream` — a bursty multi-tenant
  request stream (Markov on/off traffic, elastic membership);
- the regular stencil (:mod:`repro.array.stencil`) and Newton++
  (:mod:`repro.newton`) round out the zoo's four shapes.
"""

from repro.workloads.particle import (
    ParticleConfig,
    ParticleWorkload,
    particle_producer,
)
from repro.workloads.request_stream import (
    RequestStreamConfig,
    TenantSpec,
    request_stream_producer,
)
from repro.workloads.zoo import record_zoo

__all__ = [
    "ParticleConfig",
    "ParticleWorkload",
    "particle_producer",
    "TenantSpec",
    "RequestStreamConfig",
    "request_stream_producer",
    "record_zoo",
]
