"""The delivery layer: channels, fault injection, reliable endpoints.

A :class:`Channel` is the thin seam between the transport plane and a
:class:`~repro.mpi.comm.Communicator`; :class:`FaultyChannel` makes
that seam injectable, perturbing the *data* direction with drops,
duplicates, reordering, and payload corruption so delivery robustness
can be rehearsed deterministically (seeded).

On top of the channel sit the two reliable endpoints:

- :class:`ReliableSender` — transmits chunks under a bounded credit
  window (:mod:`repro.transport.flow`), collects per-chunk ACKs, and
  retransmits lost chunks with exponential backoff
  (:mod:`repro.transport.retry`).  Loss is decided on the send side
  (faults are injected from a seeded RNG), so the channel reports each
  frame's delivery verdict at send time and the sender schedules
  retransmissions from that verdict instead of a wall-clock timer:
  retry counts are a pure function of the seeds, immune to CPU
  contention.  Backoff is charged to the sender's simulated clock, so
  fault recovery is visible on the timeline and a clean run costs
  exactly serialization plus wire time.  Waiting for an ACK is a plain
  blocking receive: a peer that will never serve is the communicator's
  :class:`~repro.errors.DeadlockError`, not a timeout here.
- :class:`ReliableReceiver` — verifies checksums (a corrupt chunk is
  silently dropped: the missing ACK triggers retransmission), dedups
  by (step, chunk) sequence number, ACKs idempotently, and honors the
  graceful drain protocol: the producer's ``fin`` frame is answered
  with ``fin_ack`` only once everything before it was delivered.

ACK and ``fin`` traffic is control plane: it moves through the
communicator's mailboxes but is *not* charged to the simulated clock
(``charge=False``), modeling the asynchronous progress engine a real
transport runs beside the application.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.hw.clock import EventCategory, Timeline
from repro.transport.flow import CreditWindow
from repro.transport.flows import ACK_TAG, DATA_TAG
from repro.transport.metrics import TransportMetrics, new_transport_timeline
from repro.transport.wire import Chunk, StepAssembler, encode_step, get_codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.svtk.table import TableData
    from repro.transport.config import TransportConfig

__all__ = [
    "DATA_TAG",
    "ACK_TAG",
    "FaultSpec",
    "Channel",
    "FaultyChannel",
    "ReliableSender",
    "ReliableReceiver",
]

#: Simulated wire bytes of a control frame (fin / ack).
_CONTROL_NBYTES = 16


@dataclass(frozen=True)
class FaultSpec:
    """Injected channel faults (independent probabilities per frame).

    ``congestion_bytes``/``congestion_drop`` model a *shallow pipe*:
    when the sender's in-flight bytes exceed ``congestion_bytes``, the
    drop probability rises by ``congestion_drop`` per multiple of
    overshoot — the switch-buffer overflow that punishes overdriving a
    link, and the loss signal the flow-control governor reacts to.
    ``congestion_bytes=0`` (the default) disables congestion entirely.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    seed: int = 0
    congestion_bytes: int = 0
    congestion_drop: float = 0.0

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder", "corrupt",
                     "congestion_drop"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise TransportError(
                    f"fault probability {name}={v} outside [0, 1]"
                )
        if self.congestion_bytes < 0:
            raise TransportError(
                f"congestion_bytes must be >= 0: {self.congestion_bytes}"
            )

    @property
    def congested(self) -> bool:
        """True when the shallow-pipe congestion model is active."""
        return bool(self.congestion_bytes and self.congestion_drop)

    @property
    def any(self) -> bool:
        return bool(
            self.drop or self.duplicate or self.reorder or self.corrupt
            or self.congested
        )


def _frame_nbytes(frame: tuple) -> int:
    """Simulated wire size of one data-direction frame."""
    if frame[0] == "chunk":
        return frame[1].wire_nbytes
    return _CONTROL_NBYTES


class Channel:
    """Direct, reliable, in-order delivery over a communicator.

    ``charge`` controls whether data-direction sends bill the sender's
    simulated clock through the communicator's cost model.  The
    reliable sender flips it off when it charges pipelined wire time
    itself (``TransportConfig.pipelined``) so bytes are never billed
    twice.  ``load`` is the sender's current in-flight byte count —
    ignored here, consumed by :class:`FaultyChannel`'s congestion
    model.

    :meth:`send` returns the frame's *delivery verdict*: True when the
    frame will reach the peer's mailbox intact, False when it was lost
    or corrupted en route.  A clean channel always delivers; the faulty
    channel knows the verdict at send time because it injects the
    faults itself.  The reliable sender consumes the verdict purely for
    retransmit *scheduling* — it produces the same retransmission
    sequence a timeout-driven sender would, minus the wall-clock
    sensitivity.
    """

    def __init__(self, comm: "Communicator"):
        self.comm = comm
        self.charge = True

    def send(self, frame: tuple, dest: int, tag: int, load: int = 0) -> bool:
        self.comm.send(frame, dest, tag, charge=self.charge)
        return True

    def flush(self, dest: int, tag: int) -> None:
        """Release any frames the channel is holding back (no-op)."""


class FaultyChannel(Channel):
    """A channel that loses, duplicates, reorders, and corrupts frames.

    Faults are applied on the send side, deterministically from
    ``faults.seed`` and the sender's rank.  A dropped frame still
    charges its wire cost to the sender's clock (the bytes left the
    NIC; delivery is what failed).  Reordering holds one frame back
    and releases it after the next send (or on :meth:`flush`), the
    minimal perturbation that breaks in-order assumptions.
    """

    def __init__(self, comm: "Communicator", faults: FaultSpec):
        super().__init__(comm)
        self.faults = faults
        self._rng = random.Random(f"{faults.seed}:{getattr(comm, 'rank', 0)}")
        self._stash: tuple | None = None  # (frame, dest, tag)
        self.injected = {
            "drop": 0, "duplicate": 0, "reorder": 0, "corrupt": 0,
            "congestion": 0,
        }

    def _drop_probability(self, frame: tuple, load: int) -> float:
        """Per-frame loss probability, inflated by pipe overshoot."""
        f = self.faults
        p = f.drop
        if (
            frame[0] == "chunk"
            and f.congested
            and load > f.congestion_bytes
        ):
            over = (load - f.congestion_bytes) / f.congestion_bytes
            p = min(0.95, p + f.congestion_drop * over)
        return p

    def send(self, frame: tuple, dest: int, tag: int, load: int = 0) -> bool:
        f = self.faults
        deliverable = True
        if (
            frame[0] == "chunk"
            and f.corrupt
            and self._rng.random() < f.corrupt
        ):
            # The corrupt frame still travels (and bills wire bytes at
            # the receiver) but fails its checksum there, so no ACK
            # will ever come back: the verdict is already "lost".
            frame = ("chunk", frame[1].corrupted())
            self.injected["corrupt"] += 1
            deliverable = False
        p_drop = self._drop_probability(frame, load)
        if p_drop and self._rng.random() < p_drop:
            self.injected["drop"] += 1
            if p_drop > f.drop:
                self.injected["congestion"] += 1
            if self.charge:
                cost = getattr(self.comm, "cost", None)
                if cost is not None:
                    current_clock().advance(cost.message(_frame_nbytes(frame)))
            self._release(dest, tag)
            return False
        if f.reorder and self._stash is None and self._rng.random() < f.reorder:
            self.injected["reorder"] += 1
            self._stash = (frame, dest, tag)
            return deliverable
        self.comm.send(frame, dest, tag, charge=self.charge)
        if f.duplicate and self._rng.random() < f.duplicate:
            self.injected["duplicate"] += 1
            self.comm.send(frame, dest, tag, charge=self.charge)
        self._release(dest, tag)
        return deliverable

    def _release(self, dest: int, tag: int) -> None:
        if self._stash is not None:
            stashed, sdest, stag = self._stash
            self._stash = None
            self.comm.send(stashed, sdest, stag, charge=self.charge)

    def flush(self, dest: int, tag: int) -> None:
        self._release(dest, tag)


class _InFlight:
    """Book-keeping for one transmitted-but-unACKed chunk.

    ``delivered`` is the channel's verdict for the last transmission:
    True means an ACK is coming (block for it), False means the frame
    was lost or corrupted and must be retransmitted.
    """

    __slots__ = ("chunk", "attempts", "delivered", "sent_at")

    def __init__(self, chunk: Chunk, delivered: bool, sent_at: float):
        self.chunk = chunk
        self.attempts = 1
        self.delivered = delivered
        self.sent_at = sent_at  # simulated clock at last transmit


class ReliableSender:
    """Producer-side reliable delivery of step payloads to one endpoint."""

    def __init__(
        self,
        comm: "Communicator",
        dest: int,
        config: "TransportConfig | None" = None,
        metrics: TransportMetrics | None = None,
        timeline: Timeline | None = None,
        data_tag: int = DATA_TAG,
        ack_tag: int = ACK_TAG,
        pipeline: str = "",
        load_board=None,
    ):
        if config is None:
            from repro.transport.config import TransportConfig

            config = TransportConfig()
        self.comm = comm
        self.dest = int(dest)
        self.config = config
        self.data_tag = int(data_tag)
        self.ack_tag = int(ack_tag)
        self.pipeline = pipeline
        #: Optional service-plane aggregate of in-flight bytes per
        #: endpoint, shared by every sender targeting that endpoint.
        #: When set, the congestion model sees the *sum* of all tenants'
        #: outstanding bytes — the shared-bottleneck physics that makes
        #: admission control matter.
        self.load_board = load_board
        self.codec = get_codec(config.initial_codec)
        self.policy = config.retry
        self.window = CreditWindow(config.max_inflight)
        self.chunk_bytes = int(config.chunk_bytes)
        self.channel: Channel = (
            FaultyChannel(comm, config.faults)
            if config.faults.any
            else Channel(comm)
        )
        self._pipelined = bool(getattr(config, "pipelined", False))
        if self._pipelined:
            # Wire time is charged here, amortizing link latency over
            # the in-flight depth; the channel must not bill it again.
            self.channel.charge = False
        self._inflight_bytes = 0
        self._rng = random.Random(f"{config.faults.seed}:{comm.rank}:backoff")
        peer = (
            f"{pipeline}:rank{comm.rank}->rank{dest}"
            if pipeline else f"rank{comm.rank}->rank{dest}"
        )
        self.metrics = metrics if metrics is not None else TransportMetrics(
            role="sender", peer=peer
        )
        self.timeline = timeline if timeline is not None else (
            new_transport_timeline(f"transport.{peer}")
        )
        self.steps_sent = 0
        self._closed = False

    def set_codec(self, name: str) -> None:
        """Switch the wire codec for subsequent steps (control-plane hook).

        Safe at any step boundary: every chunk carries its codec name,
        so the receiver decodes each step with whatever codec encoded
        it — no sender/receiver renegotiation is needed.
        """
        self.codec = get_codec(name)

    def set_window(self, credits: int) -> None:
        """Resize the credit window (control-plane hook).

        Mirrors :meth:`set_codec`: safe at any step boundary, and safe
        mid-step too — a shrink below the current in-flight count
        defers until ACKs drain (:meth:`CreditWindow.resize` never
        strands credits already on the wire).
        """
        self.window.resize(credits)

    def set_chunk_bytes(self, nbytes: int) -> None:
        """Retarget the wire chunk size (control-plane hook).

        Takes effect at the next :meth:`send_step`: chunking happens at
        encode time, so steps already on the wire are untouched and the
        receiver needs no renegotiation (every chunk self-describes).
        """
        if nbytes < 1:
            raise TransportError(f"chunk_bytes must be >= 1: {nbytes}")
        self.chunk_bytes = int(nbytes)

    # -- data path -------------------------------------------------------------
    def send_step(self, step: int, sim_time: float, table: "TableData") -> None:
        """Deliver one step's table reliably; blocks until fully ACKed."""
        if self._closed:
            raise TransportError("sender already drained", details=self._ids())
        clock = current_clock()
        t0 = clock.now
        chunks = encode_step(
            table, step, sim_time, self.codec, self.chunk_bytes,
            pipeline=self.pipeline,
        )
        self.timeline.record(
            t0, clock.now, name=f"encode step {step}",
            category=EventCategory.COMPUTE,
        )
        self.metrics.steps += 1
        self.metrics.raw_bytes += chunks[0].raw_nbytes
        self.metrics.wire_bytes += sum(c.wire_nbytes for c in chunks)

        pending = deque(chunks)
        inflight: dict[int, _InFlight] = {}
        peak = 0
        while pending or inflight:
            while pending and self.window.try_acquire():
                c = pending.popleft()
                self._load_add(c.wire_nbytes)
                peak = max(peak, self.window.in_flight)
                delivered = self._transmit(c)
                inflight[c.index] = _InFlight(c, delivered, clock.now)
            self.channel.flush(self.dest, self.data_tag)
            if any(f.delivered for f in inflight.values()):
                self._await_acks(step, inflight)
            elif inflight:
                # Nothing in flight is awaiting an ACK: the sweep's
                # position in the send sequence is a pure function of
                # the fault seeds, never of wall-clock scheduling.
                self._retransmit_lost(step, inflight)
        if self._inflight_bytes:
            self._load_add(-self._inflight_bytes)
        self.metrics.inflight_peak = peak
        self.metrics.max_queue_depth = max(
            self.metrics.max_queue_depth, self.window.max_depth
        )
        self.steps_sent += 1

    def _load_add(self, delta: int) -> None:
        """Mirror in-flight byte accounting into the shared board."""
        self._inflight_bytes = max(0, self._inflight_bytes + delta)
        if self.load_board is not None:
            self.load_board.add(self.dest, delta)

    def _offered_load(self) -> int:
        """In-flight bytes the congestion model should see for this link."""
        if self.load_board is not None:
            return self.load_board.load(self.dest)
        return self._inflight_bytes

    def _transmit(self, chunk: Chunk) -> bool:
        clock = current_clock()
        t0 = clock.now
        delivered = self.channel.send(
            ("chunk", chunk), self.dest, self.data_tag,
            load=self._offered_load(),
        )
        if self._pipelined:
            # Pipelined wire model: a window of W outstanding chunks
            # overlaps W handshakes, so each transmit pays 1/W of the
            # link latency plus its serialization time on the pipe.
            cost = getattr(self.comm, "cost", None)
            if cost is not None:
                depth = max(1, self.window.in_flight)
                clock.advance(
                    cost.latency / depth + chunk.wire_nbytes / cost.bandwidth
                )
        self.timeline.record(
            t0, clock.now,
            name=f"send s{chunk.step}c{chunk.index}",
            category=EventCategory.COMM,
        )
        self.metrics.chunks_sent += 1
        self.metrics.bytes_out += chunk.wire_nbytes
        return delivered

    def _await_acks(self, step: int, inflight: dict[int, _InFlight]) -> None:
        """Block until one ACK lands.

        Every chunk marked ``delivered`` WILL be ACKed once the peer
        processes it — loss was ruled out at send time — so blocking
        here is safe and keeps retry counts independent of wall-clock
        load.
        """
        clock = current_clock()
        while True:
            frame = self.comm.recv(self.dest, self.ack_tag, charge=False)
            if frame[0] != "ack" or frame[1] != step:
                continue  # stale control traffic from an earlier step
            progressed = False
            for idx in frame[2]:
                state = inflight.pop(idx, None)
                if state is None:
                    continue  # duplicate ACK
                self.window.release()
                self._load_add(
                    -min(state.chunk.wire_nbytes, self._inflight_bytes)
                )
                self.metrics.acks_received += 1
                self.metrics.observe_ack_latency(clock.now - state.sent_at)
                if state.attempts > 1:
                    self.metrics.drops_recovered += 1
                progressed = True
            if progressed:
                return

    def _retransmit_lost(self, step: int, inflight: dict[int, _InFlight]) -> None:
        """Retransmit every in-flight chunk the channel reported lost.

        Reached only when nothing in flight is awaiting an ACK, so the
        sweep happens at a deterministic point in the send sequence and
        every fault draw — hence every retry count — is a pure function
        of the seeds.  One backoff per sweep: the sender pauses, then
        retransmits everything lost — charged to the simulated clock so
        fault recovery shows up in the trace (and never on a clean run).
        """
        lost = sorted(inflight.values(), key=lambda s: s.chunk.index)
        exhausted = [f for f in lost if f.attempts > self.policy.max_retries]
        if exhausted:
            c = exhausted[0].chunk
            raise TransportError(
                f"chunk {c.seq} to rank {self.dest} unacknowledged after "
                f"{self.policy.max_retries} retries",
                details={
                    **self._ids(), "step": c.step, "chunk": c.index,
                    "retries": self.policy.max_retries,
                },
            )
        clock = current_clock()
        delay = self.policy.backoff(
            min(f.attempts for f in lost), self._rng
        )
        t0 = clock.now
        clock.advance(delay)
        self.timeline.record(
            t0, clock.now, name=f"backoff step {step}",
            category=EventCategory.SYNC,
        )
        self.metrics.backoff_time += delay
        for f in lost:
            self.metrics.retries += 1
            f.attempts += 1
            f.delivered = self._transmit(f.chunk)
            f.sent_at = clock.now
        self.channel.flush(self.dest, self.data_tag)

    # -- drain ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful drain: ``fin`` / ``fin_ack`` handshake with retries.

        Drain-phase retransmissions use the same accounting as the
        data path (:meth:`_retransmit_lost`): a retry counter, a
        backoff charged to the simulated clock, and a timeline event —
        fault recovery during drain is just as visible as mid-step.
        A fin the channel reports lost is retransmitted immediately
        (the verdict is already in); a delivered one is simply awaited.
        """
        if self._closed:
            return
        clock = current_clock()
        attempts = 0
        while True:
            attempts += 1
            if attempts > 1:
                self.metrics.retries += 1
                delay = self.policy.backoff(attempts - 1, self._rng)
                t0 = clock.now
                clock.advance(delay)
                self.timeline.record(
                    t0, clock.now, name="backoff fin",
                    category=EventCategory.SYNC,
                )
                self.metrics.backoff_time += delay
            delivered = self.channel.send(
                ("fin", self.steps_sent), self.dest, self.data_tag
            )
            if self._pipelined:
                cost = getattr(self.comm, "cost", None)
                if cost is not None:
                    clock.advance(cost.message(_CONTROL_NBYTES))
            self.channel.flush(self.dest, self.data_tag)
            while delivered:
                frame = self.comm.recv(self.dest, self.ack_tag, charge=False)
                if frame[0] == "fin_ack":
                    self._closed = True
                    return
            if attempts > self.policy.max_retries:
                raise TransportError(
                    f"drain to rank {self.dest} never acknowledged "
                    f"({attempts} attempts)",
                    details={**self._ids(), "attempts": attempts},
                )

    def _ids(self) -> dict:
        return {"rank": self.comm.rank, "dest": self.dest}


class ReliableReceiver:
    """Endpoint-side reliable reception from one producer."""

    def __init__(
        self,
        comm: "Communicator",
        source: int,
        config: "TransportConfig | None" = None,
        metrics: TransportMetrics | None = None,
        timeline: Timeline | None = None,
        data_tag: int = DATA_TAG,
        ack_tag: int = ACK_TAG,
        pipeline: str = "",
    ):
        if config is None:
            from repro.transport.config import TransportConfig

            config = TransportConfig()
        self.comm = comm
        self.source = int(source)
        self.config = config
        self.data_tag = int(data_tag)
        self.ack_tag = int(ack_tag)
        self.pipeline = pipeline
        self.assembler = StepAssembler()
        peer = (
            f"{pipeline}:rank{source}->rank{comm.rank}"
            if pipeline else f"rank{source}->rank{comm.rank}"
        )
        self.metrics = metrics if metrics is not None else TransportMetrics(
            role="receiver", peer=peer
        )
        self.timeline = timeline if timeline is not None else (
            new_transport_timeline(f"transport.{peer}.recv")
        )
        self.finished = False
        self.steps_delivered = 0

    def _ingest(self, frame: tuple):
        """Process one data-direction frame.

        Returns ``("fin", None)`` after answering the drain handshake,
        ``("step", (step, time, columns))`` when the frame completed a
        step, ``("chunk", None)`` for verified mid-step progress, and
        ``("drop", None)`` for corrupt frames (ACK withheld).
        """
        if frame[0] == "fin":
            self._ack(("fin_ack",))
            self.finished = True
            return ("fin", None)
        chunk: Chunk = frame[1]
        # Every arriving chunk hits the wire — corrupt ones too —
        # so bytes_in must count it before the checksum verdict;
        # wire_bytes below stays unique-verified-only.
        self.metrics.bytes_in += chunk.wire_nbytes
        if not chunk.verify():
            # Withhold the ACK; the retransmission carries clean bytes.
            self.metrics.checksum_failures += 1
            return ("drop", None)
        if self.pipeline and chunk.pipeline and chunk.pipeline != self.pipeline:
            raise TransportError(
                f"misrouted chunk: pipeline {chunk.pipeline!r} arrived on "
                f"the {self.pipeline!r} flow from producer {self.source}",
                details={
                    "rank": self.comm.rank,
                    "source": self.source,
                    "expected": self.pipeline,
                    "got": chunk.pipeline,
                },
            )
        self.metrics.chunks_received += 1
        status = self.assembler.offer(chunk)
        self._ack(("ack", chunk.step, (chunk.index,)))
        if status == "duplicate":
            self.metrics.duplicates_dropped += 1
            return ("chunk", None)
        self.metrics.wire_bytes += chunk.wire_nbytes  # unique chunks only
        if status == "complete":
            clock = current_clock()
            t0 = clock.now
            step, sim_time, columns = self.assembler.take(chunk.step)
            self.timeline.record(
                t0, clock.now, name=f"decode step {step}",
                category=EventCategory.COMPUTE,
            )
            self.metrics.steps += 1
            self.metrics.raw_bytes += chunk.raw_nbytes
            self.steps_delivered += 1
            return ("step", (step, sim_time, columns))
        return ("chunk", None)

    def receive_step(self):
        """The next complete ``(step, time, columns)``, or None after fin."""
        while not self.finished:
            kind, value = self._ingest(
                self.comm.recv(self.source, self.data_tag)
            )
            if kind == "step":
                return value
        return None

    def poll(self):
        """Drain available frames without blocking (service-plane hook).

        Returns ``None`` when the mailbox is empty (or only partial
        progress was made), ``("step", (step, time, columns))`` for a
        completed step, or ``("fin", None)`` once the producer drains.
        Unlike :meth:`receive_step` this never waits, so one endpoint
        thread can multiplex many flows without a slow producer
        stalling its siblings.
        """
        if self.finished:
            return None
        while True:
            found, frame = self.comm.try_recv(self.source, self.data_tag)
            if not found:
                return None
            kind, value = self._ingest(frame)
            if kind == "fin":
                return ("fin", None)
            if kind == "step":
                return ("step", value)

    def _ack(self, frame: tuple) -> None:
        self.comm.send(frame, self.source, self.ack_tag, charge=False)
        self.metrics.acks_sent += 1
