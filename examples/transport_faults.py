#!/usr/bin/env python3
"""The transport plane under fire: compression, faults, recovery.

Eight simulation ranks stream particle tables to two analysis
endpoints over a deliberately hostile channel — 20% of data frames are
dropped, 5% duplicated, and some are reordered — while the reliable
transport (per-chunk ACKs, retries with backoff, sequence-number
dedup) delivers every table byte-identically anyway.  The same run is
then repeated with zlib compression to show the wire-byte saving, and
the transport timelines plus per-endpoint counters are exported as a
Chrome trace (load it in Perfetto / chrome://tracing).

Run:  python examples/transport_faults.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.hw.node import get_node
from repro.hw.trace import write_chrome_trace
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData
from repro.transport import TransportConfig
from repro.transport.retry import RetryPolicy

M_PRODUCERS, N_ENDPOINTS = 8, 2
N_ROWS = 400
STEPS = 3


class ChecksumAnalysis(AnalysisAdaptor):
    """Records a checksum of every assembled table."""

    def __init__(self):
        super().__init__("checksum")
        self.set_device_id(-1)
        self.checksums: list[int] = []
        self.rows = 0

    def acquire(self, data, deep):
        t = data.get_mesh("bodies")
        return {n: t.column(n).as_numpy_host().copy() for n in t.column_names}

    def process(self, payload, comm, device_id):
        import zlib

        blob = b"".join(payload[n].tobytes() for n in sorted(payload))
        self.checksums.append(zlib.crc32(blob))
        self.rows = sum(len(v) for v in payload.values()) // len(payload)


def producer_main(sim_comm, bridge):
    rank = bridge._world.rank
    rng = np.random.default_rng(rank)
    for step in range(STEPS):
        t = TableData("bodies")
        t.add_host_column("x", rng.standard_normal(N_ROWS))
        t.add_host_column("mass", np.full(N_ROWS, 0.01 * (rank + 1)))
        da = TableDataAdaptor({"bodies": t})
        da.set_step(step, step * 1e-3)
        bridge.execute(da)
    return rank


def run_once(transport: TransportConfig):
    layout = InTransitLayout(m=M_PRODUCERS, n=N_ENDPOINTS)
    _, endpoints = run_in_transit(
        layout, producer_main, lambda: [ChecksumAnalysis()],
        transport=transport,
    )
    return endpoints


def main() -> None:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    outdir.mkdir(parents=True, exist_ok=True)

    retry = RetryPolicy(max_retries=40)
    hostile = TransportConfig(
        chunk_bytes=1024, retry=retry,
    ).with_faults(drop=0.20, duplicate=0.05, reorder=0.05, seed=42)

    endpoints = run_once(hostile)
    baseline = [r.analyses[0].checksums for r in endpoints]
    metrics = [
        m for r in endpoints for m in
        (rm.as_dict() for rm in r.receiver_metrics.values())
    ]
    dups = sum(m["duplicates_dropped"] for m in metrics)
    chunks = sum(m["chunks_received"] for m in metrics)
    print(f"hostile channel: {chunks} chunks received, "
          f"{dups} duplicates discarded, all {STEPS} steps assembled")

    # Same run, clean channel: checksums must match byte for byte.
    clean = run_once(TransportConfig(chunk_bytes=1024, retry=retry))
    assert [r.analyses[0].checksums for r in clean] == baseline
    print("clean-channel checksums match: delivery was byte-identical")

    # Compression: fewer wire bytes for the same payload.
    packed = run_once(
        TransportConfig(chunk_bytes=1024, retry=retry, compression="zlib")
    )
    assert [r.analyses[0].checksums for r in packed] == baseline
    wire = {
        name: sum(
            rm.wire_bytes
            for r in eps for rm in r.receiver_metrics.values()
        )
        for name, eps in (("none", clean), ("zlib", packed))
    }
    ratio = wire["none"] / wire["zlib"]
    print(f"wire bytes: none={wire['none']}, zlib={wire['zlib']} "
          f"({ratio:.1f}x smaller)")
    assert wire["zlib"] < wire["none"]

    # Export transport timelines + counters for Perfetto.
    counters = []
    tid = 1000
    for eps in (clean, packed):
        for r in eps:
            for rm in r.receiver_metrics.values():
                counters.extend(rm.chrome_counter_events(tid=tid))
                tid += 1
    trace_path = outdir / "transport_trace.json"
    write_chrome_trace(
        trace_path, get_node().timelines(), extra_events=counters
    )
    print(f"wrote {trace_path}")


if __name__ == "__main__":
    main()
