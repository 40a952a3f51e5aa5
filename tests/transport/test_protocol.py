"""The reliable protocol's pure core, driven with no communicator.

``repro.transport.protocol`` decides; ``repro.transport.channel`` only
performs.  Here a Hypothesis state machine plays the network between a
:class:`SenderMachine` and a :class:`ReceiverMachine` — it hands out
delivery verdicts, loses, corrupts, duplicates and reorders frames,
resizes the window mid-step — and checks the protocol's conservation
laws against a reference model after every rule.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import TransportError
from repro.svtk.table import TableData
from repro.transport import protocol
from repro.transport.flow import CreditWindow
from repro.transport.metrics import TransportMetrics
from repro.transport.protocol import (
    AWAIT,
    BACKOFF,
    DONE,
    TRANSMIT,
    ReceiverMachine,
    SenderMachine,
)
from repro.transport.retry import RetryPolicy
from repro.transport.wire import encode_step

MAX_RETRIES = 3


def table_of(step: int, rows: int) -> TableData:
    rng = np.random.default_rng(step)
    t = TableData("bodies")
    t.add_host_column("x", rng.standard_normal(rows))
    t.add_host_column("id", np.arange(rows, dtype=np.int32) + step)
    return t


class CountingWindow(CreditWindow):
    """A credit window that counts what it hands out and gets back."""

    acquired = released = 0

    def try_acquire(self) -> bool:
        ok = super().try_acquire()
        self.acquired += ok
        return ok

    def release(self, n: int = 1) -> None:
        super().release(n)
        self.released += n


def make_pair(window=None, max_retries=MAX_RETRIES, pipeline=""):
    window = window or CountingWindow(3)
    sender = SenderMachine(
        RetryPolicy(max_retries=max_retries), window,
        TransportMetrics(role="sender"), random.Random(0),
        {"rank": 0, "dest": 1},
    )
    receiver = ReceiverMachine(
        pipeline, TransportMetrics(role="receiver"), {"rank": 1, "source": 0}
    )
    return sender, receiver


class Network(RuleBasedStateMachine):
    """Both machines and the wire between them; the rules are the wire."""

    def __init__(self):
        super().__init__()
        self.window = CountingWindow(3)
        self.sender, self.receiver = make_pair(self.window)
        self.chunk_bytes = 64
        self.wire: list[tuple] = []  # data frames on their way over
        self.acks: list[tuple] = []  # control frames on their way back
        self.action = None  # the sender's open TRANSMIT / AWAIT, if any
        self.failed: TransportError | None = None
        self.now = 0.0
        self.offered: dict[int, dict[str, np.ndarray]] = {}  # the model
        self.delivered: list[tuple[int, dict]] = []
        self.lost = 0  # lost verdicts handed to the sender
        self.losses: dict[tuple, int] = {}  # ... per frame key
        self.arrived_bytes = self.unique_bytes = self.corrupt_arrivals = 0
        self.seen: set[tuple] = set()
        self.acks_read = 0
        self.backed_off = 0.0

    # -- the sender's side of the driver --------------------------------------
    def _pump(self):
        """Run the sender up to its next action that needs the wire."""
        for _ in range(1000):
            try:
                kind, arg = self.sender.next_action()
            except TransportError as exc:
                self.failed, self.action = exc, None
                return
            if kind is BACKOFF:
                delay, label = arg
                assert delay > 0 and label in ("fin", f"step {len(self.offered) - 1}")
                self.now += delay
                self.backed_off += delay
            elif kind is DONE:
                self.action = None
                return
            else:
                self.action = (kind, arg)
                return
        raise AssertionError("1000 actions in a row that never needed the wire")

    def _verdict(self, delivered: bool, *travelling: tuple):
        _kind, frame = self.action
        self.wire.extend(travelling)
        self.now += 1e-6
        if not delivered:
            self.lost += 1
            self.losses[frame.key] = self.losses.get(frame.key, 0) + 1
        self.sender.sent(frame, delivered, self.now)
        self._pump()

    idle = precondition(
        lambda self: self.action is None and self.failed is None
        and not self.sender.closed
    )
    transmitting = precondition(
        lambda self: self.action is not None and self.action[0] is TRANSMIT
    )

    # -- rules -----------------------------------------------------------------
    @idle
    @rule(rows=st.integers(1, 40))
    def send_step(self, rows):
        step = len(self.offered)
        table = table_of(step, rows)
        self.offered[step] = {
            n: table.column(n).as_numpy_host().copy() for n in table.column_names
        }
        self.sender.offer_step(
            encode_step(table, step, 0.5 * step, "none", self.chunk_bytes)
        )
        self._pump()

    @idle
    @rule()
    def fin(self):
        self.sender.offer_fin()
        self._pump()

    @transmitting
    @rule()
    def transmit(self):
        self._verdict(True, self.action[1].wire)

    @transmitting
    @rule()
    def lose(self):
        self._verdict(False)

    @precondition(
        lambda self: self.action is not None and self.action[0] is TRANSMIT
        and self.action[1].chunk is not None  # the channel spares fin
    )
    @rule()
    def corrupt(self):
        # The frame travels and bills bytes, but no ACK will come back.
        self._verdict(False, ("chunk", self.action[1].chunk.corrupted()))

    @precondition(lambda self: self.wire)
    @rule(i=st.integers(0, 99))
    def duplicate(self, i):
        self.wire.append(self.wire[i % len(self.wire)])

    @precondition(lambda self: len(self.wire) > 1)
    @rule(i=st.integers(0, 99), j=st.integers(0, 99))
    def reorder(self, i, j):
        w, i, j = self.wire, i % len(self.wire), j % len(self.wire)
        w[i], w[j] = w[j], w[i]

    @precondition(lambda self: self.wire)
    @rule()
    def arrive(self):
        frame = self.wire.pop(0)
        if frame[0] == "chunk":
            chunk = frame[1]
            self.arrived_bytes += chunk.wire_nbytes
            if not chunk.verify():
                self.corrupt_arrivals += 1
            elif chunk.seq not in self.seen:
                self.seen.add(chunk.seq)
                self.unique_bytes += chunk.wire_nbytes
        reply, step = self.receiver.ingest(frame)
        if reply is not None:
            self.acks.append(reply)
        if step is not None:
            got_step, _time, columns = self.receiver.assembler.take(step)
            self.delivered.append((got_step, columns))

    @precondition(
        lambda self: self.acks and self.action is not None
        and self.action[0] is AWAIT
    )
    @rule()
    def ack_arrives(self):
        self.acks_read += 1
        if self.sender.ack(self.acks.pop(0), self.now):
            self._pump()

    @rule(credits=st.integers(1, 6))
    def resize_window(self, credits):
        # Grow, or shrink — below what is in flight included.
        self.window.resize(credits)

    @rule(nbytes=st.sampled_from([16, 48, 64, 512]))
    def set_chunk_bytes(self, nbytes):
        self.chunk_bytes = nbytes  # takes effect at the next send_step

    # -- invariants --------------------------------------------------------------
    @invariant()
    def each_step_is_delivered_once_with_its_original_columns(self):
        steps = [step for step, _ in self.delivered]
        assert len(steps) == len(set(steps)) == self.receiver.metrics.steps
        for step, columns in self.delivered:
            want = self.offered[step]
            assert list(columns) == list(want)
            for name in want:
                assert columns[name].dtype == want[name].dtype
                assert columns[name].tobytes() == want[name].tobytes()

    @invariant()
    def credits_and_bytes_are_conserved(self):
        s, w = self.sender, self.window
        assert w.acquired - w.released == w.in_flight == len(s.inflight)
        assert s.inflight_bytes == sum(f.nbytes for f in s.inflight.values())
        if self.action is None and self.failed is None:
            # Step end (or drain end): everything came back.
            assert w.acquired == w.released and s.inflight_bytes == 0
            assert not s.pending and not s.sweep

    @invariant()
    def every_retransmission_answers_a_lost_verdict(self):
        owed = sum(
            1 for f in self.sender.inflight.values()
            if f.attempts and not f.delivered
        )
        m = self.sender.metrics
        assert m.retries + owed == self.lost
        assert m.ack_samples == m.acks_received <= m.chunks_sent
        assert m.backoff_time == self.backed_off

    @invariant()
    def receiver_counts_every_arrival_but_bills_unique_bytes_once(self):
        m = self.receiver.metrics
        assert m.bytes_in == self.arrived_bytes
        assert m.wire_bytes == self.unique_bytes
        assert m.checksum_failures == self.corrupt_arrivals
        assert m.acks_sent == len(self.acks) + self.acks_read

    @invariant()
    def a_failure_spent_exactly_the_retry_budget(self):
        if self.failed is None:
            return
        d = self.failed.details
        assert d["rank"] == 0 and d["dest"] == 1
        if "attempts" in d:  # the drain
            key = ("fin",)
            assert d["attempts"] == MAX_RETRIES + 1
        else:
            key = (d["step"], d["chunk"])
            assert d["retries"] == MAX_RETRIES
        assert self.losses[key] == MAX_RETRIES + 1

    def teardown(self):
        """From wherever the rules left it, a clean wire ends the run in
        delivery of every offered step and a completed drain — or in the
        one failure the budget allows."""
        for _ in range(10_000):
            if self.failed is not None:
                break
            if self.action is not None and self.action[0] is TRANSMIT:
                self.transmit()
            elif self.wire:
                self.arrive()
            elif self.action is not None and self.acks:
                self.ack_arrives()
            elif self.action is None and not self.sender.closed:
                self.fin()
            else:
                break
            self.credits_and_bytes_are_conserved()
        if self.failed is None:
            assert self.sender.closed and self.receiver.finished
            assert self.action is None and not self.wire
            assert sorted(s for s, _ in self.delivered) == sorted(self.offered)
            self.each_step_is_delivered_once_with_its_original_columns()
        self.a_failure_spent_exactly_the_retry_budget()


Network.TestCase.settings = settings(
    max_examples=60, stateful_step_count=80, deadline=None
)
TestNetwork = Network.TestCase


class TestCoreIsPure:
    def test_core_imports_nothing_that_does_io(self):
        """No communicator, clock, timeline or thread can reach the
        core: its imports name none of the packages that own them, and
        its text none of their entry points."""
        source = Path(protocol.__file__).read_text()
        imported = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
        banned = ("repro.mpi", "repro.hamr", "repro.hw", "threading", "time")
        assert not [m for m in imported if m.startswith(banned)]
        for word in ("comm", "current_clock", ".advance(", "Timeline", "threading"):
            assert word not in source, word


def lossy_drain(max_retries: int, fin_losses: int):
    """Close a sender whose first ``fin_losses`` fins are lost; returns
    the sender and the kinds of action it asked for, in order."""
    sender, _ = make_pair(max_retries=max_retries)
    sender.offer_fin()
    kinds, lost = [], 0
    while True:
        kind, arg = sender.next_action()
        kinds.append(kind)
        if kind is TRANSMIT:
            assert arg.wire == ("fin", 0)
            sender.sent(arg, lost >= fin_losses, 0.0)
            lost += 1
        elif kind is BACKOFF:
            assert arg[1] == "fin"
        elif kind is AWAIT:
            assert not sender.ack(("ack", 0, (0,)), 0.0)  # stale: ignored
            assert sender.ack(("fin_ack",), 0.0)
        else:
            return sender, kinds


class TestDrainSharesTheDataPath:
    def test_lost_fin_is_backed_off_and_retransmitted_like_a_chunk(self):
        sender, kinds = lossy_drain(max_retries=3, fin_losses=2)
        assert kinds == [
            TRANSMIT, BACKOFF, TRANSMIT, BACKOFF, TRANSMIT, AWAIT, DONE,
        ]
        assert sender.closed and sender.metrics.retries == 2
        assert sender.metrics.backoff_time > 0
        # Drain frames are control traffic: not chunks, no RTT sample.
        assert sender.metrics.chunks_sent == sender.metrics.ack_samples == 0
        assert sender.window.in_flight == 0 and sender.inflight_bytes == 0

    def test_unacknowledged_drain_keeps_its_error_surface(self):
        with pytest.raises(TransportError, match="drain to rank 1 unack") as err:
            lossy_drain(max_retries=2, fin_losses=99)
        assert err.value.details == {"rank": 0, "dest": 1, "attempts": 3}

    def test_exhausted_chunk_keeps_its_error_surface(self):
        sender, _ = make_pair(max_retries=1)
        sender.offer_step(encode_step(table_of(7, 4), 7, 0.0, "none", 1 << 20))
        with pytest.raises(TransportError, match="unacknowledged after 1") as err:
            while True:
                kind, arg = sender.next_action()
                if kind is TRANSMIT:
                    sender.sent(arg, False, 0.0)
        assert err.value.details == {
            "rank": 0, "dest": 1, "step": 7, "chunk": 0, "retries": 1,
        }


class TestReceiverErrors:
    def test_misrouted_chunk_names_both_pipelines(self):
        _, receiver = make_pair(pipeline="bodies")
        (chunk,) = encode_step(table_of(0, 4), 0, 0.0, pipeline="halo")
        with pytest.raises(TransportError, match="misrouted") as err:
            receiver.ingest(("chunk", chunk))
        assert err.value.details == {
            "rank": 1, "source": 0, "expected": "bodies", "got": "halo",
        }


class TestConservationAssertion:
    def test_books_that_do_not_balance_fail_the_step(self):
        """The one check that replaced three silent clamps."""
        sender, _ = make_pair()
        sender.inflight_bytes = 5  # a leak no ACK will ever return
        with pytest.raises(TransportError, match="does not balance") as err:
            sender.next_action()
        assert err.value.details["bytes"] == 5
