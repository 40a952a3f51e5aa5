"""An in transit endpoint holds a published step once.

The endpoint keeps a step from assembly until its analyses return and
then drops it (``TableDataAdaptor.release_data``), so decoding step
k+1 never overlaps a still-referenced step k.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.transport.config import TransportConfig

MESH = "field"
ROWS = 512 * 1024  # float64: 4 MiB a step
STEP_BYTES = ROWS * 8


class RowCount(AnalysisAdaptor):
    """Counts the rows that reached the endpoint; keeps nothing."""

    def __init__(self):
        super().__init__("rows")
        self.set_device_id(-1)
        self.rows = 0

    def acquire(self, data, deep):
        self.rows += data.get_mesh(MESH).n_rows

    def process(self, payload, comm, device_id):
        pass


def _fields(steps: int) -> list[np.ndarray]:
    """Seeded values on a 1/64 grid, so zlib has real work to do."""
    rng = np.random.default_rng(7)
    return [np.round(rng.normal(size=ROWS) * 64.0) / 64.0 for _ in range(steps)]


def _run(fields, transport=None):
    def producer_main(sim_comm, bridge):
        for step, values in enumerate(fields):
            table = TableData(MESH)
            table.add_host_column("rho", values)
            adaptor = TableDataAdaptor({MESH: table})
            adaptor.set_step(step, step * 1e-3)
            bridge.execute(adaptor)

    return run_in_transit(
        InTransitLayout(1, 1), producer_main, lambda: [RowCount()],
        mesh_name=MESH, transport=transport,
    )


def test_endpoint_adaptors_hold_no_mesh_after_the_run():
    _producers, endpoints = _run(_fields(3))
    for endpoint in endpoints:
        assert endpoint.analyses[0].rows == 3 * ROWS
        for adaptor in endpoint._adaptors.values():
            assert adaptor.get_mesh_names() == ()


def test_endpoint_peak_is_below_two_decoded_steps():
    fields = _fields(3)
    transport = TransportConfig(
        compression="zlib", chunk_bytes=64 * 1024, max_inflight=8
    )
    tracemalloc.start()
    try:
        _producers, endpoints = _run(fields, transport)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert endpoints[0].analyses[0].rows == 3 * ROWS
    assert peak < 2 * STEP_BYTES, f"peak {peak / 2**20:.1f} MiB"
