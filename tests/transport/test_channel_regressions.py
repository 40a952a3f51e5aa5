"""Regression tests for reliable-channel correctness fixes.

Two historical bugs, each reproduced with a deterministic stub comm
(no SPMD run, no scheduling races):

1. ``ReliableSender.close()`` fin retransmissions bypassed the retry
   accounting of the data path: no ``metrics.retries``, no simulated
   backoff charge, no timeline event — drain-phase fault recovery was
   invisible.
2. The receiver dropped corrupt chunks before counting ``bytes_in``,
   so checksum-failed traffic vanished from wire accounting (the byte
   assertion lives in ``test_faults.py``; the unit-level check here).

Plus coverage for the new control-plane hooks the flow governor
actuates: ``set_window`` / ``set_chunk_bytes`` and the ACK round-trip
/ in-flight-peak sensors.
"""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.hw.clock import EventCategory
from repro.transport.channel import ReliableReceiver, ReliableSender
from repro.transport.config import TransportConfig
from repro.transport.retry import RetryPolicy
from repro.transport.wire import encode_step

from .test_channel import make_table, sender_receiver_run


class _ScriptedComm:
    """A comm whose ``recv`` plays back a script of frames (the last
    one repeats); sends are recorded."""

    rank = 0
    cost = None

    def __init__(self, script):
        self.script = list(script)
        self.sent = []
        self._i = 0

    def send(self, frame, dest, tag, charge=True):
        self.sent.append((frame, dest, tag))

    def recv(self, source, tag, charge=True):
        frame = self.script[min(self._i, len(self.script) - 1)]
        self._i += 1
        return frame


class TestCloseRetryAccounting:
    """Bug 1: drain-phase retransmits use data-path retry accounting."""

    def _drain(self, fin_acks_after: int):
        config = TransportConfig(retry=RetryPolicy(jitter=0.0))
        comm = _ScriptedComm([("fin_ack",)])
        sender = ReliableSender(comm, 1, config)
        # The channel reports every fin before the Nth lost, so the
        # sender retransmits on the verdict and only then waits.
        verdicts = iter([False] * (fin_acks_after - 1) + [True])
        clean_send = sender.channel.send

        def send(frame, dest, tag, load=0):
            clean_send(frame, dest, tag, load)
            return next(verdicts)

        sender.channel.send = send
        t0 = current_clock().now
        sender.close()
        return sender, current_clock().now - t0

    def test_fin_retransmissions_are_accounted(self):
        sender, elapsed = self._drain(fin_acks_after=3)
        fins = [f for f, _, _ in sender.comm.sent if f[0] == "fin"]
        assert len(fins) == 3
        # Two retransmissions: counted, charged, and on the timeline —
        # exactly like the data path's _retransmit_expired.
        assert sender.metrics.retries == 2
        assert sender.metrics.backoff_time > 0.0
        assert elapsed == pytest.approx(sender.metrics.backoff_time)
        backoffs = [
            e for e in sender.timeline.events
            if e.name == "backoff fin" and e.category is EventCategory.SYNC
        ]
        assert len(backoffs) == 2

    def test_clean_drain_charges_nothing(self):
        sender, elapsed = self._drain(fin_acks_after=1)
        assert sender.metrics.retries == 0
        assert sender.metrics.backoff_time == 0.0
        assert elapsed == 0.0


class TestReceiverByteAccounting:
    """Bug 2: corrupt arrivals count toward bytes_in, not wire_bytes."""

    def test_corrupt_chunk_counts_bytes_in_only(self):
        chunks = encode_step(make_table(256), 0, 0.0, "none", 4096)
        bad = chunks[0].corrupted()
        comm = _ScriptedComm([("chunk", bad), ("chunk", chunks[0])])
        recv = ReliableReceiver(comm, 0, TransportConfig())
        step, _t, _cols = recv.receive_step()
        assert step == 0
        assert recv.metrics.checksum_failures == 1
        # The corrupt arrival hit the wire: bytes_in counts both
        # deliveries, wire_bytes only the unique verified chunk.
        assert recv.metrics.bytes_in == 2 * chunks[0].wire_nbytes
        assert recv.metrics.wire_bytes == chunks[0].wire_nbytes


class TestFlowControlHooks:
    """The governor's actuators and sensors on a live sender pair."""

    def test_set_chunk_bytes_rechunks_next_step(self):
        comm = _ScriptedComm([])
        sender = ReliableSender(comm, 1, TransportConfig(chunk_bytes=4096))
        assert sender.chunk_bytes == 4096
        sender.set_chunk_bytes(1024)
        assert sender.chunk_bytes == 1024
        with pytest.raises(TransportError):
            sender.set_chunk_bytes(0)

    def test_set_window_resizes_live_window(self):
        comm = _ScriptedComm([])
        sender = ReliableSender(comm, 1, TransportConfig(max_inflight=4))
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
