"""A fresh substrate is a fresh node, and the node owns every ledger."""

from __future__ import annotations

from repro.hamr.stream import Stream, default_stream
from repro.hw.node import get_node
from repro.mpi.comm import run_spmd
from repro.trace.harness import fresh_substrate
from repro.transport.channel import ReliableReceiver, ReliableSender
from repro.transport.metrics import transport_timelines

from ..transport.test_channel import make_table
from tests.support import rerun


def _registries() -> tuple[int, int]:
    return len(get_node().native_streams), len(transport_timelines())


def _scenario():
    """Report what the run inherited, then leave streams and transport
    timelines behind the way any real run does."""
    inherited = _registries()
    default_stream(0)
    Stream(device_id=1, name="scratch")

    def fn(comm):
        if comm.rank == 0:
            sender = ReliableSender(comm, 1)
            sender.send_step(0, 0.0, make_table(64))
            sender.close()
        else:
            receiver = ReliableReceiver(comm, 0)
            while receiver.receive_step() is not None:
                pass

    run_spmd(2, fn)
    assert min(_registries()) >= 2
    return inherited


def test_no_registry_survives_a_fresh_substrate():
    """The native-handle table and the transport timelines once lived in
    module-level registries that outlived ``fresh_substrate()``; they
    hang off the node now, so every run starts with both empty."""
    assert rerun(_scenario, times=3) == [(0, 0)] * 3
    fresh_substrate()
    assert _registries() == (0, 0)
