"""SENSEI — the generic in situ framework (with heterogeneous extensions).

SENSEI couples simulation codes to back-end data processing, transport,
I/O, and visualization through a single instrumentation, with run-time
switching between back-ends.  This package reproduces the framework
core plus the two execution-model extensions the paper contributes
(Section 3):

1. **Execution method** — ``lockstep`` (simulation and in situ take
   turns; zero-copy data access possible) or ``asynchronous`` (the in
   situ code deep-copies the relevant data, launches a thread, and
   returns immediately; simulation and analysis proceed concurrently).

2. **Placement** — run-time control over which accelerator (or the
   host) the in situ code executes on: manual explicit device selection
   or automatic selection via Eq. 1::

       d = (r mod n_u * s + d_0) mod n_a

   with ``r`` the MPI rank, ``n_u`` devices used per node, ``s`` the
   stride, ``d_0`` the offset, and ``n_a`` the devices per node.

Both are exposed through the analysis-adaptor base class API (so every
back-end gets them) and through SENSEI's run-time XML configuration
(:mod:`repro.sensei.configurable`).

Typical instrumentation::

    bridge = Bridge()
    bridge.initialize(comm, analyses=[BinningAnalysis(...)])
    while stepping:
        bridge.execute(sim_data_adaptor)
    bridge.finalize()
"""

from repro.sensei.data_adaptor import DataAdaptor, TableDataAdaptor
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.placement import (
    DevicePlacement,
    PlacementMode,
    select_device,
)
from repro.sensei.execution import ExecutionMethod
from repro.sensei.bridge import Bridge
from repro.sensei.configurable import ConfigurableAnalysis
from repro.sensei.backends import BinningAnalysis
from repro.sensei.intransit import InTransitLayout, run_in_transit

__all__ = [
    "DataAdaptor",
    "TableDataAdaptor",
    "AnalysisAdaptor",
    "DevicePlacement",
    "PlacementMode",
    "select_device",
    "ExecutionMethod",
    "Bridge",
    "ConfigurableAnalysis",
    "BinningAnalysis",
    "InTransitLayout",
    "run_in_transit",
]
