"""Reliable delivery tests over the simulated MPI substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, TransportError
from repro.hamr.runtime import current_clock
from repro.mpi.comm import CommCostModel, run_spmd
from repro.svtk.table import TableData
from repro.transport.channel import (
    Channel,
    FaultSpec,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.config import TransportConfig
from repro.transport.flows import DATA_TAG
from repro.transport.retry import RetryPolicy
from repro.transport.wire import SERIALIZE_BANDWIDTH, encode_step


def make_table(n=512, seed=0):
    rng = np.random.default_rng(seed)
    t = TableData("bodies")
    t.add_host_column("x", rng.standard_normal(n))
    t.add_host_column("mass", rng.uniform(0.01, 0.03, n))
    return t


def sender_receiver_run(config, steps=3, n=512):
    """rank 0 sends ``steps`` tables to rank 1; returns both ends' results."""

    def fn(comm):
        if comm.rank == 0:
            sender = ReliableSender(comm, 1, config)
            for s in range(steps):
                sender.send_step(s, float(s), make_table(n, seed=s))
            sender.close()
            return ("sender", sender.metrics, current_clock().now)
        recv = ReliableReceiver(comm, 0, config)
        got = []
        while True:
            msg = recv.receive_step()
            if msg is None:
                break
            got.append(msg)
        return ("receiver", recv.metrics, got)

    out = run_spmd(2, fn)
    sender = next(o for o in out if o[0] == "sender")
    receiver = next(o for o in out if o[0] == "receiver")
    return sender, receiver


class TestCleanDelivery:
    def test_roundtrip_byte_identical(self):
        _, (_, _, got) = sender_receiver_run(TransportConfig(), steps=3)
        assert [s for s, _, _ in got] == [0, 1, 2]
        for s, _, cols in got:
            expect = make_table(512, seed=s)
            for name in expect.column_names:
                assert cols[name].tobytes() == np.ascontiguousarray(
                    expect.column(name).as_numpy_host()
                ).tobytes()

    def test_clean_run_has_no_retries_or_backoff(self):
        (_, m, _), (_, rm, _) = sender_receiver_run(TransportConfig())
        assert m.retries == 0
        assert m.backoff_time == 0.0
        assert m.drops_recovered == 0
        assert rm.duplicates_dropped == 0
        assert rm.checksum_failures == 0

    def test_clean_run_cost_is_serialization_plus_wire(self):
        """Acceptance: no simulated overhead beyond encode + transfer.

        ACKs are control plane (charge=False), so the producer's clock
        must show exactly the serialization charge plus one alpha-beta
        message per chunk.
        """
        config = TransportConfig(chunk_bytes=4096)
        table = make_table(512, seed=0)
        chunks = encode_step(table, 0, 0.0, "none", 4096)
        raw = sum(
            table.column(n).as_numpy_host().nbytes
            for n in table.column_names
        )
        cost = CommCostModel()
        # The communicator sizes the ("chunk", chunk) frame as the
        # chunk's wire footprint plus the 5-byte frame tag.
        expected = raw / SERIALIZE_BANDWIDTH + sum(
            cost.message(c.wire_nbytes + len("chunk")) for c in chunks
        )

        def fn(comm):
            if comm.rank == 0:
                sender = ReliableSender(comm, 1, config)
                t0 = current_clock().now
                sender.send_step(0, 0.0, make_table(512, seed=0))
                elapsed = current_clock().now - t0
                sender.close()
                return elapsed
            recv = ReliableReceiver(comm, 0, config)
            while recv.receive_step() is not None:
                pass
            return None

        elapsed = run_spmd(2, fn)[0]
        assert elapsed == pytest.approx(expected)

    def test_compression_reduces_wire_bytes(self):
        def constant_table(n=4096):
            t = TableData("bodies")
            t.add_host_column("x", np.zeros(n))
            return t

        def fn(comm):
            cfg = TransportConfig(compression="zlib")
            if comm.rank == 0:
                sender = ReliableSender(comm, 1, cfg)
                sender.send_step(0, 0.0, constant_table())
                sender.close()
                return sender.metrics
            recv = ReliableReceiver(comm, 0, cfg)
            got = []
            while True:
                msg = recv.receive_step()
                if msg is None:
                    break
                got.append(msg)
            np.testing.assert_array_equal(got[0][2]["x"], np.zeros(4096))
            return None

        metrics = run_spmd(2, fn)[0]
        assert metrics.wire_bytes < metrics.raw_bytes
        assert metrics.compression_ratio > 1.0

    def test_double_close_is_idempotent_and_send_after_close_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                sender = ReliableSender(comm, 1)
                sender.send_step(0, 0.0, make_table(64))
                sender.close()
                sender.close()  # no-op
                try:
                    sender.send_step(1, 1.0, make_table(64))
                except TransportError:
                    return "rejected"
                return "accepted"
            recv = ReliableReceiver(comm, 0)
            while recv.receive_step() is not None:
                pass
            return None

        assert run_spmd(2, fn)[0] == "rejected"


class TestFaultyDelivery:
    @pytest.mark.parametrize(
        "faults",
        [
            FaultSpec(drop=0.2, seed=3),
            FaultSpec(duplicate=0.3, seed=5),
            FaultSpec(reorder=0.3, seed=7),
            FaultSpec(corrupt=0.2, seed=11),
            FaultSpec(drop=0.15, duplicate=0.1, reorder=0.1, corrupt=0.1, seed=13),
        ],
        ids=["drop", "duplicate", "reorder", "corrupt", "mixed"],
    )
    def test_delivery_survives_faults(self, faults):
        config = TransportConfig(
            chunk_bytes=2048,
            faults=faults,
            retry=RetryPolicy(max_retries=30),
        )
        (_, m, _), (_, rm, got) = sender_receiver_run(config, steps=3, n=2048)
        assert [s for s, _, _ in got] == [0, 1, 2]
        for s, _, cols in got:
            expect = make_table(2048, seed=s)
            for name in expect.column_names:
                assert cols[name].tobytes() == np.ascontiguousarray(
                    expect.column(name).as_numpy_host()
                ).tobytes()
        if faults.drop or faults.corrupt:
            assert m.retries > 0
            assert m.backoff_time > 0.0

    def test_retry_budget_exhaustion_is_structured(self):
        """A link that loses every transmit exhausts the budget with details."""

        def fn(comm):
            if comm.rank == 0:
                cfg = TransportConfig(
                    retry=RetryPolicy(max_retries=1)
                ).with_faults(drop=1.0)
                sender = ReliableSender(comm, 1, cfg)
                try:
                    sender.send_step(0, 0.0, make_table(64))
                except TransportError as exc:
                    return exc.details
                return None
            return "nothing ever arrives"

        details = run_spmd(2, fn)[0]
        assert details["dest"] == 1
        assert details["retries"] == 1

    def test_peer_that_returns_without_serving_is_named_finished(self):
        """A delivered chunk nobody will ACK is a deadlock report naming
        the peer as finished — no retry is burnt against a wall guard."""
        metrics = {}

        def fn(comm):
            if comm.rank == 0:
                sender = ReliableSender(comm, 1, TransportConfig())
                metrics["sender"] = sender.metrics
                sender.send_step(0, 0.0, make_table(64))
            return "mute"

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, fn)
        details = err.value.details
        assert details["finished"] == ["rank 1"]
        (parked,) = details["parked"]
        assert parked["context"] == "rank 0"
        assert "recv(source=1 (rank 1, finished)" in parked["waits_on"]
        assert metrics["sender"].retries == 0


class TestFaultyChannelUnit:
    class _StubComm:
        rank = 0
        cost = None

        def __init__(self):
            self.sent = []

        def send(self, frame, dest, tag, charge=True):
            self.sent.append((frame, dest, tag))

    def _chunks(self):
        return encode_step(make_table(2048), 0, 0.0, "none", 1024)

    def test_deterministic_across_instances(self):
        frames = [("chunk", c) for c in self._chunks()] * 10
        runs = []
        for _ in range(2):
            comm = self._StubComm()
            ch = Channel(comm, FaultSpec(drop=0.3, duplicate=0.2, seed=9))
            verdicts = [ch.send(f, 1, DATA_TAG) for f in frames]
            ch.flush()
            runs.append((verdicts, [id(f[1]) for f, _, _ in comm.sent]))
        assert runs[0] == runs[1]
        verdicts, sent = runs[0]
        assert False in verdicts  # something was dropped ...
        assert len(sent) > len(set(sent))  # ... and something duplicated

    def test_reorder_holds_then_releases(self):
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(reorder=1.0, seed=1))
        a, b = [("chunk", c) for c in self._chunks()[:2]]
        ch.send(a, 1, DATA_TAG)  # stashed
        assert comm.sent == []
        ch.send(b, 1, DATA_TAG)  # b goes out, then a releases
        assert [f for f, _, _ in comm.sent][0] is b
        ch.flush()
        assert len(comm.sent) == 2

    def test_corrupt_flips_payload_only_for_chunks(self):
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(corrupt=1.0, seed=1))
        (frame,) = [("chunk", self._chunks()[0])]
        ch.send(frame, 1, DATA_TAG)
        assert not comm.sent[0][0][1].verify()
        ch.send(("fin", 1), 1, DATA_TAG)  # control frames pass clean
        assert comm.sent[1][0] == ("fin", 1)

    def test_fault_probabilities_validated(self):
        with pytest.raises(TransportError):
            FaultSpec(drop=1.5)


class TestDeliveryVerdict:
    """The channel's send-time delivery verdict drives retransmission.

    Faults are injected sender-side from a seeded RNG, so the channel
    knows at :meth:`Channel.send` whether the frame will reach the
    peer's mailbox intact.  The reliable sender schedules retransmits
    from that verdict instead of a wall-clock deadline, which makes
    retry counts a pure function of the seeds.
    """

    _StubComm = TestFaultyChannelUnit._StubComm

    def _chunk_frame(self):
        return ("chunk", encode_step(make_table(64), 0, 0.0, "none", 1024)[0])

    def test_clean_channel_always_delivers(self):
        """The clean channel is the zero FaultSpec: same class, and not
        one random number is drawn for it."""
        comm = self._StubComm()
        ch = Channel(comm)
        before = ch._rng.getstate()
        assert ch.send(self._chunk_frame(), 1, DATA_TAG) is True
        assert ch.send(("fin", 1), 1, DATA_TAG) is True
        assert len(comm.sent) == 2 and ch._rng.getstate() == before

    def test_drop_verdict_is_lost(self):
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(drop=1.0, seed=1))
        assert ch.send(self._chunk_frame(), 1, DATA_TAG) is False
        assert comm.sent == []  # the frame never reached the mailbox

    def test_corrupt_verdict_is_lost_but_frame_travels(self):
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(corrupt=1.0, seed=1))
        assert ch.send(self._chunk_frame(), 1, DATA_TAG) is False
        # The corrupt frame still bills wire bytes at the receiver; it
        # is "lost" only in the sense that no ACK will ever come back.
        assert len(comm.sent) == 1
        assert not comm.sent[0][0][1].verify()

    def test_reorder_and_duplicate_verdicts_are_delivered(self):
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(reorder=1.0, seed=1))
        # Stashed for reordering, but it WILL arrive: still delivered.
        assert ch.send(self._chunk_frame(), 1, DATA_TAG) is True
        comm = self._StubComm()
        ch = Channel(comm, FaultSpec(duplicate=1.0, seed=1))
        assert ch.send(self._chunk_frame(), 1, DATA_TAG) is True
        assert len(comm.sent) == 2

    def test_retry_counts_are_a_pure_function_of_the_seeds(self):
        """Identical lossy transfers retry identically, rerun to rerun.

        Under the old wall-clock ``ack_timeout`` scheduling, retry
        counts depended on host scheduling jitter; verdict-driven
        scheduling must reproduce them exactly from the fault seed.
        """
        config = TransportConfig(
            chunk_bytes=1024,
            faults=FaultSpec(drop=0.25, corrupt=0.1, seed=17),
            retry=RetryPolicy(max_retries=40),
        )
        runs = []
        for _ in range(2):
            (_, m, t_end), (_, rm, got) = sender_receiver_run(
                config, steps=2, n=1024
            )
            assert [s for s, _, _ in got] == [0, 1]
            runs.append(
                (
                    m.retries, m.drops_recovered, m.chunks_sent,
                    m.backoff_time, rm.checksum_failures,
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0] > 0  # the link was genuinely lossy
