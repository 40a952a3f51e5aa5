"""Acceptance: fault-injected in transit runs deliver byte-identical data.

The headline guarantee of the transport plane — a channel dropping 20%
of frames and duplicating 5% must still deliver every producer's table
byte-identically, via retries and receiver-side dedup.
"""

from __future__ import annotations

import numpy as np

from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy

N_ROWS = 50
N_STEPS = 3


def producer_table(rank: int, step: int) -> TableData:
    t = TableData("bodies")
    t.add_host_column(
        "x", np.arange(N_ROWS, dtype=np.float64) + 1000.0 * rank + step
    )
    t.add_host_column("mass", np.full(N_ROWS, 0.5 + rank, dtype=np.float64))
    return t


class CaptureAnalysis(AnalysisAdaptor):
    """Keeps a copy of every assembled table it sees."""

    def __init__(self):
        super().__init__("capture")
        self.set_device_id(-1)
        self.seen: list[tuple[int, dict[str, np.ndarray]]] = []

    def acquire(self, data, deep):
        t = data.get_mesh("bodies")
        return (
            data.time_step,
            {n: t.column(n).as_numpy_host().copy() for n in t.column_names},
        )

    def process(self, payload, comm, device_id):
        self.seen.append(payload)


def producer_main(sim_comm, bridge):
    rank = bridge._world.rank
    for step in range(N_STEPS):
        da = TableDataAdaptor({"bodies": producer_table(rank, step)})
        da.set_step(step, step * 0.1)
        bridge.execute(da)
    return rank


def expected_columns(runner, step):
    return {
        name: np.concatenate(
            [
                producer_table(p, step).column(name).as_numpy_host()
                for p in sorted(runner.receivers)
            ]
        )
        for name in ("x", "mass")
    }


class TestFaultInjectionAcceptance:
    def test_lossy_duplicating_channel_delivers_byte_identical(self):
        layout = InTransitLayout(m=8, n=2)
        transport = TransportConfig(
            chunk_bytes=256,
            retry=RetryPolicy(max_retries=40),
        ).with_faults(drop=0.20, duplicate=0.05, seed=1234)

        producers, endpoints = run_in_transit(
            layout, producer_main, lambda: [CaptureAnalysis()],
            transport=transport,
        )

        assert sorted(producers) == list(range(8))
        assert len(endpoints) == 2
        for runner in endpoints:
            assert runner.steps_processed == N_STEPS
            capture = runner.analyses[0]
            assert len(capture.seen) == N_STEPS
            for step, cols in capture.seen:
                for name, arr in expected_columns(runner, step).items():
                    assert cols[name].tobytes() == arr.tobytes()

        # Faults actually happened and were recovered, not avoided.
        receiver_metrics = [
            r.metrics
            for runner in endpoints
            for r in runner.receivers.values()
        ]
        assert sum(m.duplicates_dropped for m in receiver_metrics) > 0
        assert sum(m.chunks_received for m in receiver_metrics) > 0

    def test_compressed_transport_under_faults(self):
        layout = InTransitLayout(m=4, n=2)
        transport = TransportConfig(
            compression="zlib",
            chunk_bytes=256,
            retry=RetryPolicy(max_retries=40),
        ).with_faults(drop=0.1, corrupt=0.1, seed=77)

        _, endpoints = run_in_transit(
            layout, producer_main, lambda: [CaptureAnalysis()],
            transport=transport,
        )
        checksum_failures = 0
        bytes_in = wire_bytes = 0
        for runner in endpoints:
            assert runner.steps_processed == N_STEPS
            for step, cols in runner.analyses[0].seen:
                for name, arr in expected_columns(runner, step).items():
                    assert cols[name].tobytes() == arr.tobytes()
            for r in runner.receivers.values():
                checksum_failures += r.metrics.checksum_failures
                bytes_in += r.metrics.bytes_in
                wire_bytes += r.metrics.wire_bytes
        # Corrupt frames were detected (and recovered via withheld ACKs).
        assert checksum_failures > 0
        # Wire accounting: bytes_in counts every arriving chunk —
        # corrupt and duplicate ones included — while wire_bytes stays
        # unique-verified-only, so corrupted traffic never silently
        # vanishes from the byte-rate signal.
        assert bytes_in > wire_bytes

