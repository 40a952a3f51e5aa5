"""The delivery layer: the fault-injectable channel and the I/O driver.

This module owns everything the reliable protocol *touches* — the
communicator, the simulated clock, the timelines, the cost model — and
nothing it *decides*: that is :mod:`repro.transport.protocol`, two pure
step machines.  :class:`ReliableSender` / :class:`ReliableReceiver` feed
the machines events and perform the actions they answer with, in a
fixed order (DESIGN.md §5: vocabulary, effect order, who charges what).

Data frames pass through a :class:`Channel`, the seam to the
:class:`~repro.mpi.comm.Communicator` where seeded faults are injected.
Waiting for an ACK is a plain blocking receive: a peer that will never
serve is the communicator's :class:`~repro.errors.DeadlockError`, not a
timeout here.

ACK and ``fin_ack`` traffic is control plane: it moves through the
communicator's mailboxes but is *not* charged to the simulated clock
(``charge=False``), modeling the asynchronous progress engine a real
transport runs beside the application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TransportError
from repro.hamr.runtime import current_clock
from repro.hw.clock import EventCategory, Timeline
from repro.transport import flows
from repro.transport.flow import CreditWindow
from repro.transport.metrics import TransportMetrics, new_transport_timeline
from repro.transport.protocol import (
    AWAIT,
    CONTROL_NBYTES,
    DONE,
    TRANSMIT,
    ReceiverMachine,
    SenderMachine,
)
from repro.transport.wire import encode_step, get_codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.svtk.table import TableData
    from repro.transport.config import TransportConfig

__all__ = ["FaultSpec", "Channel", "ReliableSender", "ReliableReceiver"]


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


class Channel:
    """Delivery over a communicator, with seeded fault injection.

    Faults perturb the *data* direction only and are applied on the
    send side, deterministically from ``faults.seed`` and the sender's
    rank, in a fixed order per frame: corrupt, drop, reorder,
    duplicate.  A dropped frame still charges its wire cost to the
    sender's clock (the bytes left the NIC; delivery is what failed).
    Reordering holds one frame back and releases it after the next send
    (or on :meth:`flush`), the minimal perturbation that breaks
    in-order assumptions.  Under the zero :class:`FaultSpec` every
    probability test short-circuits before its draw: the clean channel
    is this class, not another one.

    ``charge`` controls whether data-direction sends bill the sender's
    simulated clock through the communicator's cost model (``cost``,
    resolved here once; a test double may have none).  The reliable
    sender flips it off when it charges pipelined wire time itself
    (``TransportConfig.pipelined``) so bytes are never billed twice.
    ``load`` is the sender's current in-flight byte count, the
    congestion model's input.

    :meth:`send` returns the frame's *delivery verdict*: True when the
    frame will reach the peer's mailbox intact, False when it was lost
    or corrupted en route — known at send time because the channel
    injects the faults itself.  The reliable sender consumes the
    verdict purely for retransmit *scheduling*: it produces the same
    retransmission sequence a timeout-driven sender would, minus the
    wall-clock sensitivity.
    """

    def __init__(self, comm: "Communicator", faults: FaultSpec = FaultSpec()):
        self.comm = comm
        self.cost = getattr(comm, "cost", None)
        self.charge = True
        self.faults = faults
        self._rng = random.Random(f"{faults.seed}:{getattr(comm, 'rank', 0)}")
        self._stash: tuple | None = None  # (frame, dest, tag)

    def send(self, frame: tuple, dest: int, tag: int, load: int = 0) -> bool:
        f = self.faults
        is_chunk = frame[0] == "chunk"
        deliverable = True
        if is_chunk and f.corrupt and self._rng.random() < f.corrupt:
            # The corrupt frame still travels (and bills wire bytes at
            # the receiver) but fails its checksum there, so no ACK
            # will ever come back: the verdict is already "lost".
            frame = ("chunk", frame[1].corrupted())
            deliverable = False
        p_drop = f.drop
        if is_chunk and f.congestion_drop and 0 < f.congestion_bytes < load:
            # The shallow pipe: loss inflated by the overshoot.
            over = (load - f.congestion_bytes) / f.congestion_bytes
            p_drop = min(0.95, p_drop + f.congestion_drop * over)
        if p_drop and self._rng.random() < p_drop:
            if self.charge and self.cost is not None:
                nbytes = frame[1].wire_nbytes if is_chunk else CONTROL_NBYTES
                current_clock().advance(self.cost.message(nbytes))
            self.flush()
            return False
        if f.reorder and self._stash is None and self._rng.random() < f.reorder:
            self._stash = (frame, dest, tag)
            return deliverable
        self.comm.send(frame, dest, tag, charge=self.charge)
        if f.duplicate and self._rng.random() < f.duplicate:
            self.comm.send(frame, dest, tag, charge=self.charge)
        self.flush()
        return deliverable

    def flush(self) -> None:
        """Release the frame held back for reordering, if any."""
        if self._stash is not None:
            stashed, dest, tag = self._stash
            self._stash = None
            self.comm.send(stashed, dest, tag, charge=self.charge)


class _Endpoint:
    """What the two reliable endpoints share: communicator, tag pair,
    flow label, and the defaulting of config, counters and timeline."""

    def _setup(self, role, comm, source, dest, config, metrics, timeline,
               data_tag, ack_tag, pipeline) -> None:
        if config is None:
            from repro.transport.config import TransportConfig

            config = TransportConfig()
        self.comm, self.config, self.pipeline = comm, config, pipeline
        self.data_tag, self.ack_tag = int(data_tag), int(ack_tag)
        peer = f"rank{source}->rank{dest}"
        if pipeline:
            peer = f"{pipeline}:{peer}"
        if metrics is None:
            metrics = TransportMetrics(role=role, peer=peer)
        if timeline is None:
            suffix = "" if role == "sender" else ".recv"
            timeline = new_transport_timeline(f"transport.{peer}{suffix}")
        self.metrics, self.timeline = metrics, timeline


class ReliableSender(_Endpoint):
    """Producer-side reliable delivery of step payloads to one endpoint."""

    def __init__(
        self,
        comm: "Communicator",
        dest: int,
        config: "TransportConfig | None" = None,
        metrics: TransportMetrics | None = None,
        timeline: Timeline | None = None,
        data_tag: int = flows.DATA_TAG,
        ack_tag: int = flows.ACK_TAG,
        pipeline: str = "",
        load_board=None,
    ):
        self.dest = int(dest)
        self._setup("sender", comm, comm.rank, dest, config, metrics,
                    timeline, data_tag, ack_tag, pipeline)
        config = self.config
        #: Optional service-plane aggregate of in-flight bytes per
        #: endpoint, shared by every sender targeting that endpoint.
        #: When set, the congestion model sees the *sum* of all tenants'
        #: outstanding bytes — the shared-bottleneck physics that makes
        #: admission control matter.
        self.load_board = load_board
        self.codec = get_codec(config.initial_codec)
        self.window = CreditWindow(config.max_inflight)
        self.chunk_bytes = int(config.chunk_bytes)
        self.channel = Channel(comm, config.faults)
        # Pipelined wire time is charged here, amortizing link latency
        # over the in-flight depth; the channel must not bill it again.
        self.channel.charge = not config.pipelined
        self.core = SenderMachine(
            config.retry, self.window, self.metrics,
            random.Random(f"{config.faults.seed}:{comm.rank}:backoff"),
            {"rank": comm.rank, "dest": self.dest},
        )

    @property
    def closed(self) -> bool:
        """True once the drain handshake completed."""
        return self.core.closed

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

    def send_step(self, step: int, sim_time: float, table: "TableData") -> None:
        """Deliver one step's table reliably; blocks until fully ACKed."""
        if self.closed:
            raise TransportError("sender already drained", details=self.core.ids)
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
        self.core.offer_step(chunks)
        self._drive()

    def close(self) -> None:
        """Graceful drain: ``fin`` / ``fin_ack`` handshake with retries.

        ``fin`` rides the same in-flight table as the data, so a lost
        one gets the same retry counter, the same backoff charged to
        the simulated clock and the same timeline event — fault
        recovery during drain is just as visible as mid-step.
        """
        if not self.closed:
            self.core.offer_fin()
            self._drive()

    def _drive(self) -> None:
        """Perform the core's actions until nothing is left in flight."""
        core, clock = self.core, current_clock()
        while True:
            kind, arg = core.next_action()
            if kind is TRANSMIT:
                self._transmit(arg, clock)
                continue
            if kind is DONE:
                return
            self.channel.flush()
            if kind is AWAIT:
                released = 0
                while not released:
                    released = core.ack(
                        self.comm.recv(self.dest, self.ack_tag, charge=False),
                        clock.now,
                    )
                if self.load_board is not None:
                    self.load_board.add(self.dest, -released, clock.now)
            else:
                # BACKOFF, charged to the simulated clock: fault recovery
                # is visible on the timeline, and a clean run costs
                # exactly serialization plus wire time.
                delay, label = arg
                t0 = clock.now
                clock.advance(delay)
                self.timeline.record(
                    t0, clock.now, name=f"backoff {label}",
                    category=EventCategory.SYNC,
                )

    def _transmit(self, frame, clock) -> None:
        t0 = clock.now
        # The congestion model sees this link's in-flight bytes: the
        # core's own count, or every tenant's through the shared board.
        load, board = self.core.inflight_bytes, self.load_board
        if board is not None:
            if not frame.attempts:
                board.add(self.dest, frame.nbytes, t0)
            load = board.load(self.dest, t0)
        delivered = self.channel.send(
            frame.wire, self.dest, self.data_tag, load=load
        )
        cost = self.channel.cost
        if self.config.pipelined and cost is not None:
            # Pipelined wire model: a window of W outstanding frames
            # overlaps W handshakes, so each transmit pays 1/W of the
            # link latency plus its serialization time on the pipe.
            depth = max(1, self.window.in_flight)
            clock.advance(cost.latency / depth + frame.nbytes / cost.bandwidth)
        if frame.chunk is not None:
            self.timeline.record(
                t0, clock.now,
                name=f"send s{frame.chunk.step}c{frame.chunk.index}",
                category=EventCategory.COMM,
            )
        self.core.sent(frame, delivered, clock.now)


class ReliableReceiver(_Endpoint):
    """Endpoint-side reliable reception from one producer."""

    def __init__(
        self,
        comm: "Communicator",
        source: int,
        config: "TransportConfig | None" = None,
        metrics: TransportMetrics | None = None,
        timeline: Timeline | None = None,
        data_tag: int = flows.DATA_TAG,
        ack_tag: int = flows.ACK_TAG,
        pipeline: str = "",
    ):
        self.source = int(source)
        self._setup("receiver", comm, source, comm.rank, config, metrics,
                    timeline, data_tag, ack_tag, pipeline)
        self.core = ReceiverMachine(
            pipeline, self.metrics, {"rank": comm.rank, "source": self.source}
        )

    @property
    def finished(self) -> bool:
        """True once the producer's ``fin`` was answered."""
        return self.core.finished

    def _ingest(self, blocking: bool):
        """The one ingest loop: feed arriving frames to the core.

        Returns ``("step", (step, time, columns))`` when a frame
        completed a step, ``("fin", None)`` when it was the producer's
        drain, and None when the flow had already finished or — only
        if not ``blocking`` — the mailbox is empty.
        """
        core, comm = self.core, self.comm
        while not core.finished:
            if blocking:
                frame = comm.recv(self.source, self.data_tag)
            else:
                found, frame = comm.try_recv(self.source, self.data_tag)
                if not found:
                    return None
            reply, step = core.ingest(frame)
            if reply is not None:
                comm.send(reply, self.source, self.ack_tag, charge=False)
            if step is not None:
                clock = current_clock()
                t0 = clock.now
                value = core.assembler.take(step)
                self.timeline.record(
                    t0, clock.now, name=f"decode step {step}",
                    category=EventCategory.COMPUTE,
                )
                return ("step", value)
            if core.finished:
                return ("fin", None)
        return None

    def receive_step(self):
        """The next complete ``(step, time, columns)``, or None after fin."""
        out = self._ingest(blocking=True)
        return out and out[1]

    def poll(self):
        """Drain available frames without blocking (service-plane hook).

        Returns ``None`` when the mailbox is empty (or only partial
        progress was made), ``("step", (step, time, columns))`` for a
        completed step, or ``("fin", None)`` once the producer drains.
        Unlike :meth:`receive_step` this never waits, so one endpoint
        thread can multiplex many flows without a slow producer
        stalling its siblings.
        """
        return self._ingest(blocking=False)
