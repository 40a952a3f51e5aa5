"""The reliable protocol's decisions, with no I/O: two step machines.

Everything the reliable channel *decides* lives here — credit window,
in-flight table, retransmit schedule and budget, drain handshake, dedup
and ACK policy — as two machines that take **events** and answer with
**actions**.  They never send, receive, read a clock or record a
timeline: :mod:`repro.transport.channel` owns those and performs what
the machines ask, so every decision can be tested by feeding events in
a loop (``tests/transport/test_protocol.py``).  DESIGN.md §5 is the
source of truth for the vocabulary and the order of effects.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import TransportError
from repro.transport.flow import CreditWindow
from repro.transport.retry import RetryPolicy
from repro.transport.wire import Chunk, StepAssembler

__all__ = [
    "TRANSMIT", "BACKOFF", "AWAIT", "DONE", "CONTROL_NBYTES",
    "Frame", "SenderMachine", "ReceiverMachine",
]

#: The kinds of action :meth:`SenderMachine.next_action` answers with.
TRANSMIT, BACKOFF, AWAIT, DONE = "transmit", "backoff", "await", "done"

#: Simulated wire bytes of a control frame (fin / ack).
CONTROL_NBYTES = 16

#: The drain frame's key in the in-flight table (chunks use ``Chunk.seq``).
_FIN = ("fin",)


class Frame:
    """One data-direction frame, from offer until its ACK retires it.

    ``wire`` is the tuple that travels; ``delivered`` is the verdict of
    the *last* transmission: True means an ACK is on its way (wait for
    it), False means the frame was lost or corrupted and is owed a
    retransmission.  ``sent_at`` is the sender's simulated time at that
    transmission, ``attempts`` how many there have been.
    """

    __slots__ = ("key", "wire", "chunk", "nbytes", "attempts", "delivered",
                 "sent_at")

    def __init__(self, key: tuple, wire: tuple, chunk: Chunk | None = None):
        self.key, self.wire, self.chunk = key, wire, chunk
        self.nbytes = CONTROL_NBYTES if chunk is None else chunk.wire_nbytes
        self.attempts, self.delivered, self.sent_at = 0, False, 0.0


class SenderMachine:
    """Producer side: window, in-flight table, retransmit schedule, drain.

    Events are the methods below plus ``window.resize`` at any time (the
    window is shared with the driver); :meth:`next_action` answers with
    a flat ``(kind, argument)`` tuple, and *fail* is a raised
    :class:`~repro.errors.TransportError`.  The drain frame ``fin`` is
    just the last entry of the same in-flight table, so data and drain
    share one backoff / retransmit / exhaustion path.

    ``metrics`` is the endpoint's cumulative counter object (anything
    with :class:`~repro.transport.metrics.TransportMetrics`' fields);
    ``ids`` (rank, dest) is copied into every error's ``details``.
    """

    def __init__(self, policy: RetryPolicy, window: CreditWindow, metrics,
                 rng: random.Random, ids: dict):
        self.policy, self.window, self.metrics = policy, window, metrics
        self.rng, self.ids = rng, ids
        self.pending: deque[Frame] = deque()  # offered, no credit yet
        self.inflight: dict[tuple, Frame] = {}  # transmitted, not yet ACKed
        self.sweep: deque[Frame] = deque()  # lost, owed a retransmission
        self.inflight_bytes = 0
        self.closed = False

    def offer_step(self, chunks: list[Chunk]) -> None:
        """Event: one step's encoded chunks are ready to go."""
        m = self.metrics
        m.steps += 1
        m.raw_bytes += chunks[0].raw_nbytes
        m.wire_bytes += sum(c.wire_nbytes for c in chunks)
        m.inflight_peak = 0  # the high-water mark of the latest step
        self.pending.extend(Frame(c.seq, ("chunk", c), c) for c in chunks)

    def offer_fin(self) -> None:
        """Event: close — the drain frame queues up like any other."""
        self.pending.append(Frame(_FIN, ("fin", self.metrics.steps)))

    def sent(self, frame: Frame, delivered: bool, now: float) -> None:
        """Event: ``frame`` was transmitted; the channel's verdict is in."""
        frame.attempts += 1
        frame.delivered, frame.sent_at = delivered, now
        m = self.metrics
        if frame.attempts > 1:
            m.retries += 1
        if frame.chunk is not None:
            m.chunks_sent += 1
            m.bytes_out += frame.nbytes

    def ack(self, wire: tuple, now: float) -> int:
        """Event: a control frame arrived -> the in-flight bytes it retired.

        Zero means no progress: stale control traffic from an earlier
        step and duplicate ACKs name keys that are no longer in the
        table and retire nothing.
        """
        keys = [(wire[1], i) for i in wire[2]] if wire[0] == "ack" else (_FIN,)
        before = self.inflight_bytes
        for key in keys:
            frame = self.inflight.pop(key, None)
            if frame is None:
                continue
            self.window.release()
            self.inflight_bytes -= frame.nbytes
            if frame.chunk is None:
                self.closed = True
                continue
            m = self.metrics
            m.acks_received += 1
            m.observe_ack_latency(now - frame.sent_at)
            if frame.attempts > 1:
                m.drops_recovered += 1
        return before - self.inflight_bytes

    def next_action(self) -> tuple:
        """What the driver must do now.

        ``(TRANSMIT, frame)`` — send it and report the verdict through
        :meth:`sent`; ``(BACKOFF, (delay, label))`` — pause that long;
        ``(AWAIT, None)`` — block for control frames and feed them to
        :meth:`ack` until one reports progress; ``(DONE, None)``.
        """
        if self.sweep:
            return TRANSMIT, self.sweep.popleft()
        if self.pending and self.window.try_acquire():
            frame = self.pending.popleft()
            self.inflight[frame.key] = frame
            self.inflight_bytes += frame.nbytes
            if frame.chunk is not None:
                m, depth = self.metrics, self.window.in_flight
                m.inflight_peak = max(m.inflight_peak, depth)
                m.max_queue_depth = max(m.max_queue_depth, depth)
            return TRANSMIT, frame
        if not self.inflight:
            # Conservation: every byte and credit that entered flight
            # was retired by an ACK, or the books are wrong.
            if self.inflight_bytes or self.window.in_flight:
                raise TransportError(
                    "in-flight accounting does not balance at step end",
                    details={**self.ids, "bytes": self.inflight_bytes,
                             "credits": self.window.in_flight},
                )
            return DONE, None
        if any(f.delivered for f in self.inflight.values()):
            # Loss was ruled out at send time, so the ACK WILL arrive
            # once the peer gets to it: waiting is safe and keeps retry
            # counts independent of wall-clock load.
            return AWAIT, None
        # Nothing in flight is awaiting an ACK, so the sweep sits at a
        # point of the send sequence fixed by the fault seeds alone —
        # every fault draw, hence every retry count, is a pure function
        # of the seeds.  One backoff draw per sweep, then everything
        # lost goes again (in chunk order: frames enter the table so).
        lost = list(self.inflight.values())
        for frame in lost:
            if frame.attempts > self.policy.max_retries:
                raise self._exhausted(frame)
        delay = self.policy.backoff(min(f.attempts for f in lost), self.rng)
        self.metrics.backoff_time += delay
        self.sweep.extend(lost)
        chunk = lost[0].chunk
        return BACKOFF, (delay, "fin" if chunk is None else f"step {chunk.step}")

    def _exhausted(self, frame: Frame) -> TransportError:
        chunk, retries = frame.chunk, self.policy.max_retries
        if chunk is None:
            what, extra = "drain", {"attempts": frame.attempts}
        else:
            what = f"chunk {chunk.seq}"
            extra = {"step": chunk.step, "chunk": chunk.index, "retries": retries}
        return TransportError(
            f"{what} to rank {self.ids['dest']} unacknowledged after "
            f"{retries} retries",
            details={**self.ids, **extra},
        )


class ReceiverMachine:
    """Endpoint side: checksum verdict, dedup, ACK policy, drain answer.

    A corrupt chunk is silently dropped (the missing ACK triggers the
    retransmission, which carries clean bytes); every verified chunk is
    ACKed, duplicates too, so ACKs are idempotent; dedup is by (step,
    chunk) sequence number; the producer's ``fin`` is answered with
    ``fin_ack``.  One event, :meth:`ingest`.
    """

    def __init__(self, pipeline: str, metrics, ids: dict):
        self.pipeline, self.metrics, self.ids = pipeline, metrics, ids
        self.assembler = StepAssembler()
        self.finished = False

    def ingest(self, wire: tuple) -> tuple:
        """Event: a data-direction frame arrived -> ``(reply, step)``.

        ``reply`` is the control frame to send back, or None when the
        ACK is withheld; ``step`` is the step this frame completed (the
        driver takes it from ``assembler``), or None.
        """
        m = self.metrics
        if wire[0] == "fin":
            self.finished = True
            m.acks_sent += 1
            return ("fin_ack",), None
        chunk: Chunk = wire[1]
        # Every arriving chunk hits the wire — corrupt ones too — so
        # bytes_in counts it before the checksum verdict; wire_bytes
        # below stays unique-verified-only.
        m.bytes_in += chunk.wire_nbytes
        if not chunk.verify():
            m.checksum_failures += 1
            return None, None
        if self.pipeline and chunk.pipeline and chunk.pipeline != self.pipeline:
            raise TransportError(
                f"misrouted chunk: pipeline {chunk.pipeline!r} arrived on "
                f"the {self.pipeline!r} flow from producer "
                f"{self.ids['source']}",
                details={**self.ids, "expected": self.pipeline,
                         "got": chunk.pipeline},
            )
        m.chunks_received += 1
        m.acks_sent += 1
        reply = ("ack", chunk.step, (chunk.index,))
        status = self.assembler.offer(chunk)
        if status == "duplicate":
            m.duplicates_dropped += 1
            return reply, None
        m.wire_bytes += chunk.wire_nbytes  # unique chunks only
        if status != "complete":
            return reply, None
        m.steps += 1
        m.raw_bytes += chunk.raw_nbytes
        return reply, chunk.step
