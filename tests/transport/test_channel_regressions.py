"""Regression tests for reliable-channel correctness fixes.

What the *driver* owes the protocol core (``repro.transport.protocol``
is tested on its own, with no communicator, in ``test_protocol.py``):

1. ``ReliableSender.close()`` fin retransmissions use the data path's
   retry accounting — ``metrics.retries``, a simulated backoff charge,
   a timeline event — so drain-phase fault recovery is visible.
2. The control-plane hooks the flow governor actuates
   (``set_window`` / ``set_chunk_bytes``) and the ACK round-trip /
   in-flight-peak sensors, on endpoints built outside ``run_spmd``.
"""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.hw.clock import EventCategory
from repro.mpi.comm import CommCostModel, SelfCommunicator, run_spmd
from repro.transport.channel import ReliableReceiver, ReliableSender
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy

from .test_channel import sender_receiver_run


class TestCloseRetryAccounting:
    """Bug 1: drain-phase retransmits use data-path retry accounting."""

    def _drain(self, fin_acks_after: int):
        config = TransportConfig(retry=RetryPolicy(jitter=0.0))

        def fn(comm):
            if comm.rank == 1:
                assert ReliableReceiver(comm, 0, config).receive_step() is None
                return None
            sender = ReliableSender(comm, 1, config)
            # The channel reports every fin before the Nth lost, so the
            # sender retransmits on the verdict and only then waits.
            verdicts = iter([False] * (fin_acks_after - 1) + [True])
            clean_send = sender.channel.send
            fins = []

            def send(frame, dest, tag, load=0):
                fins.append(frame[0])
                clean_send(frame, dest, tag, load)
                return next(verdicts)

            sender.channel.send = send
            t0 = current_clock().now
            sender.close()
            assert sender.closed
            return sender, fins, current_clock().now - t0

        # A free wire, so the only simulated time a drain can cost is backoff.
        free = CommCostModel(latency=0.0, bandwidth=float("inf"))
        return run_spmd(2, fn, cost=free)[0]

    def test_fin_retransmissions_are_accounted(self):
        sender, fins, elapsed = self._drain(fin_acks_after=3)
        assert fins == ["fin"] * 3
        # Two retransmissions: counted, charged, and on the timeline —
        # fin rides the data path's own in-flight table.
        assert sender.metrics.retries == 2
        assert sender.metrics.backoff_time > 0.0
        assert elapsed == pytest.approx(sender.metrics.backoff_time)
        backoffs = [
            e for e in sender.timeline.events
            if e.name == "backoff fin" and e.category is EventCategory.SYNC
        ]
        assert len(backoffs) == 2

    def test_clean_drain_charges_nothing(self):
        sender, _fins, elapsed = self._drain(fin_acks_after=1)
        assert sender.metrics.retries == 0
        assert sender.metrics.backoff_time == 0.0
        assert elapsed == 0.0


class TestFlowControlHooks:
    """The governor's actuators and sensors on a live sender pair."""

    def test_set_chunk_bytes_rechunks_next_step(self):
        sender = ReliableSender(
            SelfCommunicator(), 1, TransportConfig(chunk_bytes=4096)
        )
        assert sender.chunk_bytes == 4096
        sender.set_chunk_bytes(1024)
        assert sender.chunk_bytes == 1024
        with pytest.raises(TransportError):
            sender.set_chunk_bytes(0)

    def test_set_window_resizes_live_window(self):
        sender = ReliableSender(
            SelfCommunicator(), 1, TransportConfig(max_inflight=4)
        )
        sender.set_window(9)
        assert sender.window.credits == 9
        with pytest.raises(TransportError):
            sender.set_window(0)

    def test_clean_run_measures_ack_rtt_and_peak(self):
        config = TransportConfig(chunk_bytes=1024, max_inflight=4)
        (_, m, _), _ = sender_receiver_run(config, steps=2, n=2048)
        assert m.ack_samples == m.acks_received > 0
        assert m.ack_latency >= 0.0
        assert 1 <= m.inflight_peak <= 4
