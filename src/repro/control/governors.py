"""Governors: feedback controllers wired to the paper's runtime knobs.

Each governor closes one loop: it digests observations through the
primitives in :mod:`repro.control.policy` and, when the evidence says
the current setting is wrong, pushes a new one through a narrow
*actuator* callable.  Each is switched on or off as a whole by its
:class:`~repro.control.plan.ControlConfig` boolean: a governor that
exists acts.

Every governor speaks one protocol — ``observe(<its signals>)`` then
``decide(step, t=None) -> list[Decision]`` — and declares, as class
attributes, everything the rest of the system needs to know about it:
which ``ControlConfig`` setting switches it and how the trace plane
treats its decisions.  No governor holds a communicator or blocks in
``decide``: one that acts on node-wide sums exposes its per-rank
``contribution()`` and is handed the folded sums by the driver that
owns the round.  The package
docstring (:mod:`repro.control`) tabulates all eight; the five here
turn the paper's own knobs, the service and array governors live in
their own modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.control.policy import EWMA, Hysteresis
from repro.hamr.runtime import current_clock
from repro.hw.contention import ContentionModel, SharedResource
from repro.hw.node import num_devices
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import DevicePlacement, reaim
from repro.transport.wire import SERIALIZE_BANDWIDTH, get_codec
from repro.units import KiB

__all__ = [
    "Decision",
    "Governor",
    "CodecGovernor",
    "ExecutionModeGovernor",
    "PlacementGovernor",
    "PoolTrimGovernor",
    "FlowBounds",
    "FlowGovernor",
]


@dataclass(frozen=True)
class Decision:
    """One governor verdict, logged whether or not it was applied.

    ``applied`` is False when the governor has no actuator, and for
    findings that change nothing (placement's crowding report);
    ``args`` carries the structured context in the same sorted
    ``(key, value)`` tuple format the analysis findings use, so
    decision logs and lint/sanitizer reports line up.
    """

    governor: str
    step: int
    time: float  # simulated seconds; positions the decision on the trace
    action: str
    reason: str
    applied: bool = True
    args: tuple = ()

    @property
    def args_dict(self) -> dict:
        return dict(self.args)

    def to_dict(self) -> dict:
        return {
            "governor": self.governor,
            "step": self.step,
            "time": self.time,
            "action": self.action,
            "reason": self.reason,
            "applied": self.applied,
            "args": self.args_dict,
        }


class Governor:
    """Base class: the protocol, actuation, self-description.

    A subclass sets ``name`` (the ``Decision.governor`` it logs under)
    and overrides the class attributes below where the defaults do not
    fit; :meth:`repro.control.plan.ControlPlane.governor` and
    :mod:`repro.trace` read them instead of naming governors.
    """

    name = "governor"
    #: ``ControlConfig`` boolean switching this governor on or off;
    #: None means the field named ``name``.
    switch: str | None = None
    #: True when a trace replay re-executes the path driving this
    #: governor, so its decisions are regenerated rather than re-injected.
    replayed = False
    #: ``Decision.args`` quoting measured (jittery) signals; canonical
    #: traces scrub them together with the free-text ``reason``.
    measured_args: tuple[str, ...] = ()

    @classmethod
    def kinds(cls) -> list[type["Governor"]]:
        """Every governor class defined below this one."""
        found: list[type[Governor]] = []
        for sub in cls.__subclasses__():
            found.append(sub)
            found.extend(sub.kinds())
        return found

    @classmethod
    def named(cls, name: str) -> type["Governor"]:
        """The class logging as ``name``; this base class when unknown."""
        return next((k for k in cls.kinds() if k.name == name), cls)

    def __init__(self, actuator: Callable | None = None):
        self.actuator = actuator

    def _actuate(self, *args) -> bool:
        """Push a setting through the actuator; False without one."""
        if self.actuator is None:
            return False
        self.actuator(*args)
        return True

    def _decision(
        self,
        step: int,
        t: float | None,
        action: str,
        reason: str,
        applied: bool,
        **args,
    ) -> Decision:
        return Decision(
            governor=self.name,
            step=int(step),
            time=float(t) if t is not None else current_clock().now,
            action=action,
            reason=reason,
            applied=applied,
            args=tuple(sorted(args.items())),
        )

    def observe(self, step: int, *signals) -> None:
        """Feed one round's signals (each subclass names its own).

        The default suits a governor that samples its target when it
        decides and so has nothing to be fed.
        """

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """Evaluate the loop over the latest signals.

        Returns every verdict of this round — empty when the setting
        should stay — applied through the actuator.
        """
        return []


class CodecGovernor(Governor):
    """Chooses the wire codec per endpoint: observed ratio × bandwidth.

    The governor keeps EWMA estimates of the per-step payload, the
    achieved link bandwidth (wire bytes over measured wire time), and
    the achievable compression ratio — observed directly while a
    compressing codec is active, or measured by compressing a small
    payload *sample* (the probe, charged to the simulated clock) while
    running uncompressed.  Each decision compares the predicted
    per-step cost of every candidate codec::

        cost(none) = payload/serialize_bw + payload/bw_link
        cost(c)    = payload/serialize_bw + payload/c.compress_bw
                     + (payload/ratio)/bw_link

    and switches only when the current codec is worse than the best by
    more than ``margin`` (anti-flap).
    """

    name = "codec"
    replayed = True

    #: Payload bytes the ratio probe compresses, and the steps between
    #: probes while running uncompressed.
    PROBE_BYTES = 8192
    PROBE_INTERVAL = 8

    def __init__(
        self,
        actuator: Callable[[str], None] | None = None,
        codecs: Sequence[str] = ("none", "zlib"),
        initial: str = "none",
        margin: float = 1.05,
        alpha: float = 0.5,
    ):
        super().__init__(actuator)
        self.codecs = tuple(codecs)
        self.current = str(initial)
        self.margin = float(margin)
        self._bandwidth = EWMA(alpha)
        self._payload = EWMA(alpha)
        self._ratio = EWMA(alpha)
        self._last_probe_step: int | None = None

    # -- sensors ---------------------------------------------------------------
    def observe(
        self,
        step: int,
        raw_bytes: int,
        wire_bytes: int,
        transfer_time: float,
        sample: bytes | None = None,
    ) -> None:
        """Feed one step's transport measurements.

        ``transfer_time`` is the wire time (apparent ship time minus
        the encode/backoff charges); ``sample`` is a slice of the raw
        payload the ratio probe may compress.
        """
        if raw_bytes > 0:
            self._payload.update(raw_bytes)
        if wire_bytes > 0 and transfer_time > 0:
            self._bandwidth.update(wire_bytes / transfer_time)
        if self.current != "none" and raw_bytes > 0 and wire_bytes > 0:
            self._ratio.update(raw_bytes / wire_bytes)
        elif sample:
            due = (
                self._ratio.value is None
                or self._last_probe_step is None
                or step - self._last_probe_step >= self.PROBE_INTERVAL
            )
            if due:
                self._probe(step, sample)

    def _probe(self, step: int, sample: bytes) -> None:
        """Measure the achievable ratio on a payload sample.

        The probe compresses up to ``PROBE_BYTES`` with the first
        compressing candidate and charges that CPU to the simulated
        clock, so adaptivity is never free in the measurements.
        """
        names = [c for c in self.codecs if c != "none"]
        if not names:
            return
        codec = get_codec(names[0])
        probe = bytes(sample[: self.PROBE_BYTES])
        if not probe:
            return
        compressed = codec.compress((probe,))
        current_clock().advance(codec.compress_time(len(probe)))
        self._ratio.update(len(probe) / max(len(compressed), 1))
        self._last_probe_step = step

    # -- the loop ---------------------------------------------------------------
    def predict_cost(self, name: str) -> float | None:
        """Predicted per-step cost of running under codec ``name``."""
        payload = self._payload.value
        bandwidth = self._bandwidth.value
        if payload is None or bandwidth is None or bandwidth <= 0:
            return None
        codec = get_codec(name)
        serialize = payload / SERIALIZE_BANDWIDTH
        if codec.name == "none":
            return serialize + payload / bandwidth
        ratio = max(self._ratio.get(1.0), 1e-9)
        return (
            serialize
            + codec.compress_time(payload)
            + (payload / ratio) / bandwidth
        )

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        costs = {c: self.predict_cost(c) for c in self.codecs}
        if any(costs[c] is None for c in self.codecs):
            return []  # estimates not warm yet
        choice = min(self.codecs, key=lambda c: costs[c])
        if choice == self.current:
            return []
        if costs[self.current] <= self.margin * costs[choice]:
            return []  # not enough predicted improvement to switch
        reason = (
            f"predicted step cost {costs[self.current]:.3g}s under "
            f"{self.current!r} vs {costs[choice]:.3g}s under {choice!r} "
            f"(ratio~{self._ratio.get(1.0):.2f}, "
            f"bw~{self._bandwidth.get(0.0):.3g} B/s)"
        )
        applied = self._actuate(choice)
        previous = self.current
        if applied:
            self.current = choice
        return [self._decision(
            step, t, f"codec={choice}", reason, applied,
            previous=previous,
            cost_current=costs[previous], cost_best=costs[choice],
        )]


class ExecutionModeGovernor(Governor):
    """Switches lockstep ↔ asynchronous on the in situ / solver ratio.

    The controlled signal is ``(insitu - copy) / sim``: the busy time
    asynchronous execution could hide, net of the deep copy it cannot
    (``deep_copy_table`` charges the snapshot to the simulation — the
    paper's "apparent" asynchronous cost), relative to the solver's
    step time.  The signal passes through a hysteresis band so one
    noisy step cannot flap the mode.  The copy-cost estimate prefers
    measurement (the apparent time of an asynchronous step *is* the
    copy charge) and falls back to the analytic estimate supplied by
    the caller until the first asynchronous step provides one.
    """

    name = "execution"

    def __init__(
        self,
        actuator: Callable[[ExecutionMethod], None] | None = None,
        low: float = 0.05,
        high: float = 0.15,
        alpha: float = 0.5,
        initial: ExecutionMethod = ExecutionMethod.LOCKSTEP,
    ):
        super().__init__(actuator)
        self.mode = initial
        self._band = Hysteresis(
            low, high, state=(initial is ExecutionMethod.ASYNCHRONOUS)
        )
        self._sim = EWMA(alpha)
        self._insitu = EWMA(alpha)
        self._copy = EWMA(alpha)
        self._copy_measured = False
        self.last_ratio: float | None = None

    def observe(
        self,
        step: int,
        sim_time: float,
        insitu_time: float,
        apparent_time: float,
        copy_estimate: float | None = None,
    ) -> None:
        if sim_time > 0:
            self._sim.update(sim_time)
        if insitu_time > 0:
            self._insitu.update(insitu_time)
        if self.mode is ExecutionMethod.ASYNCHRONOUS and apparent_time > 0:
            # Under async the simulation only pays the deep copy.
            self._copy.update(apparent_time)
            self._copy_measured = True
        elif not self._copy_measured and copy_estimate is not None \
                and copy_estimate > 0:
            self._copy.update(copy_estimate)

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        sim = self._sim.value
        insitu = self._insitu.value
        if not sim or insitu is None:
            return []
        copy = self._copy.get(0.0)
        ratio = (insitu - copy) / sim
        self.last_ratio = ratio
        want_async = self._band.update(ratio)
        target = (
            ExecutionMethod.ASYNCHRONOUS if want_async
            else ExecutionMethod.LOCKSTEP
        )
        if target is self.mode:
            return []
        applied = self._actuate(target)
        previous = self.mode
        if applied:
            self.mode = target
        return [self._decision(
            step, t, f"execution={target.value}",
            f"(insitu-copy)/sim = ({insitu:.3g}-{copy:.3g})/{sim:.3g} = "
            f"{ratio:.3f} crossed the [{self._band.low}, {self._band.high}] "
            "band",
            applied,
            previous=previous.value,
            ratio=round(ratio, 4),
            insitu=insitu,
            copy=copy,
            sim=sim,
        )]


class PlacementGovernor(Governor):
    """Re-aims Eq. 1's ``n_use``/``stride``/``offset`` from node-wide sums.

    A rank that judges device load from its own view alone has a blind
    spot: two ranks on one node can independently "flee" an overloaded
    device to the *same* calm one and crowd it — each local view says
    the move is good, and neither can see the other deciding the same
    thing.  So this governor decides on sums over every governed rank,
    and leaves the summing to whoever drives it:

    1. :meth:`contribution` is this rank's named fields — the node's
       busy fractions dilated by contention sharers, its own share of
       its current device, resident pool bytes, and a one-hot of the
       device Eq. 1 currently resolves to for it;
    2. the driver (:meth:`ControlPlane.observe_device_loads
       <repro.control.plan.ControlPlane.observe_device_loads>`) folds
       the fields over the communicator it was wired on — or, at one
       rank, folds nothing — and hands the sums to :meth:`ingest`;
    3. :meth:`decide` derives the external-load picture (node busy
       minus what the governed ranks themselves contribute — the load
       that will not move when they do), detects **crowding** (>= 2
       ranks resolved to one device while another sits idle), and, when
       triggered, re-aims through :func:`repro.sensei.placement.reaim`
       — new Eq. 1 parameters whose rank image spreads the participants
       over the calmest devices.

    The trigger and the re-aim are pure functions of the ingested sums,
    so every rank fed the same sums applies the identical
    :class:`~repro.sensei.placement.DevicePlacement` on the same step —
    per-rank Eq. 1 resolution then fans the ranks out across the target
    set instead of piling them onto one device.  Crowding findings are
    logged as decisions even when no re-aim results.  ``overload`` is
    the re-aim trigger relative to the node-mean external load.
    """

    name = "placement"

    #: The dilation model device loads are scored with.
    CONTENTION = ContentionModel()
    #: Weight folding resident pool bytes into the device score (a
    #: device whose pool hoards memory is a worse target even when idle).
    RESIDENT_WEIGHT = 0.25

    def __init__(
        self,
        actuator: Callable[[DevicePlacement], None] | None = None,
        rank: int = 0,
        base: DevicePlacement | None = None,
        overload: float = 1.30,
    ):
        super().__init__(actuator)
        self.rank = int(rank)
        self.placement = base if base is not None else DevicePlacement.auto()
        self.overload = float(overload)
        self.n_devices = num_devices()
        self._loads: dict[int, float] = {}
        self._parties: dict[int, int] = {}
        self._resident: dict[int, int] = {}
        self._self_load = 0.0
        self._total: dict[str, np.ndarray] | None = None
        #: Crowding finding of the latest decision (reporting access).
        self.last_crowding: Decision | None = None

    # -- sensors ---------------------------------------------------------------
    def observe(
        self,
        step: int,
        loads: Mapping[int, float],
        parties: Mapping[int, int] | None = None,
        self_load: float = 0.0,
        resident_bytes: Mapping[int, int] | None = None,
    ) -> None:
        """This rank's latest per-device measurements.

        ``loads`` are node-wide busy fractions as this rank sees them
        (``parties`` optional sharer counts); ``self_load`` is the
        slice of its *own* current device's busy fraction this rank
        itself produced (the load that moves with it);
        ``resident_bytes`` is per-device resident pool footprint.
        """
        self._loads = {int(d): float(v) for d, v in loads.items()}
        self._parties = (
            {int(d): int(v) for d, v in parties.items()} if parties else {}
        )
        self._self_load = max(0.0, float(self_load))
        self._resident = (
            {int(d): int(v) for d, v in resident_bytes.items()}
            if resident_bytes
            else {}
        )

    def dilation(self, device: int) -> float:
        """Slowdown of ``device`` under its observed sharer count."""
        sharers = max(0, self._parties.get(device, 1) - 1)
        return self.CONTENTION.dilation(SharedResource.GPU_COMPUTE, sharers)

    # -- the round ---------------------------------------------------------------
    def contribution(self) -> dict[str, list[float]]:
        """This rank's fields of a round, ``n_devices`` slots per device field.

        ``busy`` is the dilated node load, ``own`` this rank's slice of
        its current device, ``aimed`` a one-hot of that device, ``ranks``
        the participation count.
        """
        n = self.n_devices
        fields = {
            name: [0.0] * n for name in ("busy", "own", "resident", "aimed")
        }
        fields["ranks"] = [1.0]
        for d in range(n):
            fields["busy"][d] = self._loads.get(d, 0.0) * self.dilation(d)
            fields["resident"][d] = float(self._resident.get(d, 0))
        current = self.placement.resolve(self.rank, n_available=n)
        if 0 <= current < n:
            fields["own"][current] = self._self_load * self.dilation(current)
            fields["aimed"][current] = 1.0
        return fields

    def ingest(self, total: Mapping[str, Sequence[float]]) -> None:
        """Take the round's folded sums back — at one rank, simply this
        rank's own :meth:`contribution`."""
        self._total = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in total.items()
        }

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        """A crowding finding and/or a re-aim from the ingested sums."""
        total = self._total
        if total is None:
            return []
        ranks_total = int(round(total["ranks"][0]))
        if ranks_total < 1:
            return []
        n = self.n_devices
        counts = total["aimed"]
        resident = total["resident"]
        # External load: what stays on a device when the governed ranks
        # move off it.  Resident pool bytes tip ties toward devices
        # with headroom.
        external = np.maximum(0.0, total["busy"] / ranks_total - total["own"])
        resident_total = float(resident.sum())
        score = external + (
            self.RESIDENT_WEIGHT * resident / resident_total
            if resident_total > 0
            else 0.0
        )

        decisions: list[Decision] = []
        crowded = [
            (d, int(round(counts[d]))) for d in range(n) if counts[d] >= 2
        ]
        idle = [d for d in range(n) if counts[d] == 0]
        self.last_crowding = None
        if crowded and idle:
            self.last_crowding = self._decision(
                step,
                t,
                "crowding",
                f"devices {[d for d, _c in crowded]} carry >=2 ranks each "
                f"while {idle} sit idle",
                applied=False,
                crowded=tuple(crowded),
                idle=tuple(idle),
                counts=tuple(int(round(c)) for c in counts),
            )
            decisions.append(self.last_crowding)

        mean_score = float(score.mean())
        occupied = [d for d in range(n) if counts[d] > 0]
        overloaded = [
            d for d in occupied if mean_score > 0
            and score[d] > self.overload * mean_score
        ]
        if not (crowded and idle) and not overloaded:
            return decisions
        k = min(ranks_total, n)
        order = sorted(range(n), key=lambda d: (score[d], d))
        targets = order[:k]
        proposal = reaim(targets, n_available=n)
        if proposal == self.placement:
            return decisions
        applied = self._actuate(proposal)
        previous = self.placement
        if applied:
            self.placement = proposal
        decisions.append(
            self._decision(
                step,
                t,
                f"placement=auto(n_use={proposal.n_use}, "
                f"stride={proposal.stride}, offset={proposal.offset})",
                f"re-aim over {ranks_total} ranks: targets "
                f"{targets} (external loads "
                f"{[round(float(s), 3) for s in score]})",
                applied,
                previous=(
                    f"auto(n_use={previous.n_use}, stride={previous.stride}, "
                    f"offset={previous.offset})"
                ),
                targets=tuple(targets),
                ranks=ranks_total,
                crowding=bool(crowded and idle),
            )
        )
        return decisions


class PoolTrimGovernor(Governor):
    """Trims a stream-ordered memory pool above a high watermark.

    Pooled bytes stay claimed on the device (the OOM footprint the
    paper worries about); this governor releases them back whenever
    the pool's idle inventory exceeds ``watermark_bytes``, via
    :meth:`repro.hamr.pool.MemoryPool.trim_above`.
    """

    name = "pool"

    def __init__(self, pool, watermark_bytes: int):
        super().__init__(pool.trim_above)
        if watermark_bytes < 0:
            raise ValueError(f"watermark must be >= 0: {watermark_bytes}")
        self.pool = pool
        self.watermark = int(watermark_bytes)
        self.trimmed_bytes = 0

    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        pooled = self.pool.pooled_bytes
        if pooled <= self.watermark:
            return []
        freed = self.actuator(self.watermark)
        self.trimmed_bytes += freed
        return [self._decision(
            step, t, f"trim {freed} B",
            f"pooled {pooled} B exceeds watermark {self.watermark} B on "
            f"{self.pool.resource.name}",
            True,
            pooled=pooled,
            watermark=self.watermark,
            freed=freed,
        )]


@dataclass(frozen=True)
class FlowBounds:
    """Actuation limits for :class:`FlowGovernor`.

    ``min_chunk``/``max_chunk`` bound the power-of-two chunk rungs;
    ``min_credits``/``max_credits`` bound the credit window.
    """

    min_credits: int = 1
    max_credits: int = 64
    min_chunk: int = 4 * KiB
    max_chunk: int = 256 * KiB

    def __post_init__(self):
        if self.min_credits < 1:
            raise ValueError(f"min_credits must be >= 1: {self.min_credits}")
        if self.max_credits < self.min_credits:
            raise ValueError(
                f"max_credits {self.max_credits} < min_credits "
                f"{self.min_credits}"
            )
        if self.min_chunk < 1:
            raise ValueError(f"min_chunk must be >= 1: {self.min_chunk}")
        if self.max_chunk < self.min_chunk:
            raise ValueError(
                f"max_chunk {self.max_chunk} < min_chunk {self.min_chunk}"
            )


class FlowGovernor(Governor):
    """AIMD flow control over one sender's credit window and chunk size.

    The controlled signals are the sender's ACK round-trip EWMA and its
    per-chunk retry rate (both simulated-clock quantities, so the loop
    is deterministic under seeded faults):

    - **Additive increase**: while the ACK latency stays flat (within
      ``latency_slack`` × the lowest EWMA seen) *and* the window
      saturates (the step's in-flight high-water reaches the credit
      limit), grow the window by ``GROW`` credits — there is demand and
      the link shows no strain.
    - **Multiplicative decrease**: when the retry-rate EWMA crosses the
      hysteresis band's high threshold, halve both the window and the
      chunk rung (classic loss response), then hold for ``cooldown``
      decisions so the EWMA can decay before shrinking again.
    - **Chunk rungs**: chunk size moves on bounded power-of-two rungs —
      up one rung while the retry rate sits under the band's low
      threshold, down with every loss response — so a lossy link pays
      for retransmissions in small units and a clean link amortizes
      per-chunk overhead in large ones.

    Shrinks actuate through :meth:`ReliableSender.set_window`, whose
    deferred-shrink semantics guarantee in-flight credits are never
    stranded.  When the plane folds device loads over more than one
    rank, this rank's EWMAs ride that round as :meth:`contribution` and
    :meth:`ingest_node` overrides the local signals with the node means,
    so every rank converges on the same window.
    """

    name = "flow"
    replayed = True
    measured_args = ("retry_rate", "ack_latency", "inflight_peak")

    #: Hysteresis band on the retry-rate EWMA (low, high).
    RETRY_BAND = (0.01, 0.10)
    #: Credits added per additive-increase step.
    GROW = 1
    #: What a rank with no flow governor puts in a round's flow fields,
    #: so layouts match whichever ranks govern their transport.
    ABSENT = {"ack": [0.0], "retry": [0.0]}

    def __init__(
        self,
        window_actuator: Callable[[int], None] | None = None,
        chunk_actuator: Callable[[int], None] | None = None,
        credits: int = 8,
        chunk_bytes: int = 64 * KiB,
        bounds: FlowBounds | None = None,
        latency_slack: float = 1.5,
        alpha: float = 0.5,
        cooldown: int = 2,
    ):
        super().__init__(None)
        self.window_actuator = window_actuator
        self.chunk_actuator = chunk_actuator
        self.bounds = bounds if bounds is not None else FlowBounds()
        self.credits = max(
            self.bounds.min_credits, min(self.bounds.max_credits, int(credits))
        )
        self.chunk_bytes = max(
            self.bounds.min_chunk, min(self.bounds.max_chunk, int(chunk_bytes))
        )
        self.latency_slack = float(latency_slack)
        self.cooldown = int(cooldown)
        self._band = Hysteresis(*self.RETRY_BAND, state=False)
        self._retry = EWMA(alpha)
        self._ack = EWMA(alpha)
        self._floor: float | None = None
        self._last_peak = 0
        self._last_shrink: int | None = None
        self._samples = 0
        self._node_retry: float | None = None
        self._node_ack: float | None = None

    # -- sensors ---------------------------------------------------------------
    def observe(
        self,
        step: int,
        ack_latency: float,
        retries: int,
        chunks: int,
        inflight_peak: int,
    ) -> None:
        """Feed one step's transport measurements (deltas for counters)."""
        if ack_latency > 0:
            self._ack.update(ack_latency)
        if chunks > 0:
            self._retry.update(retries / chunks)
        self._last_peak = int(inflight_peak)
        self._samples += 1

    def contribution(self) -> dict[str, list[float]]:
        """This rank's fields of a round: its own retry/ACK EWMAs."""
        return {
            "ack": [self._ack.get(0.0)], "retry": [self._retry.get(0.0)],
        }

    def ingest_node(self, retry_rate: float, ack_latency: float) -> None:
        """Override local signals with node means (coordinated mode).

        Every rank feeding its governor identical node means drives all
        windows through identical decisions — the node-consistent
        window without a second collective.
        """
        self._node_retry = float(retry_rate)
        self._node_ack = float(ack_latency)

    @property
    def coordinated(self) -> bool:
        """True once node-mean signals have been ingested."""
        return self._node_retry is not None

    @property
    def retry_rate(self) -> float:
        """The retry-rate signal the next decision will act on."""
        return (
            self._node_retry if self._node_retry is not None
            else self._retry.get(0.0)
        )

    @property
    def ack_estimate(self) -> float:
        """The ACK-latency signal the next decision will act on."""
        return (
            self._node_ack if self._node_ack is not None
            else self._ack.get(0.0)
        )

    # -- the loop ---------------------------------------------------------------
    def decide(self, step: int, t: float | None = None) -> list[Decision]:
        if self._samples == 0:
            return []
        retry_rate = self.retry_rate
        ack = self.ack_estimate
        if ack > 0 and (self._floor is None or ack < self._floor):
            self._floor = ack
        lossy = self._band.update(retry_rate)
        credits, chunk = self.credits, self.chunk_bytes
        new_credits, new_chunk = credits, chunk
        why = []
        if lossy:
            held = (
                self._last_shrink is not None
                and step - self._last_shrink < self.cooldown
            )
            if not held:
                new_credits = max(self.bounds.min_credits, credits // 2)
                new_chunk = max(self.bounds.min_chunk, chunk // 2)
                self._last_shrink = step
                why.append(
                    f"retry rate {retry_rate:.3f} above "
                    f"{self._band.high:.3f}: multiplicative decrease"
                )
        else:
            flat = (
                self._floor is None
                or ack <= self.latency_slack * max(self._floor, 1e-12)
            )
            if flat and self._last_peak >= credits:
                new_credits = min(self.bounds.max_credits, credits + self.GROW)
                if new_credits != credits:
                    why.append(
                        f"ack latency {ack:.3g}s within "
                        f"{self.latency_slack:.2f}x floor and window "
                        f"saturated (peak {self._last_peak}): additive grow"
                    )
            if retry_rate <= self._band.low:
                new_chunk = min(self.bounds.max_chunk, chunk * 2)
                if new_chunk != chunk:
                    why.append(
                        f"retry rate {retry_rate:.3f} under "
                        f"{self._band.low:.3f}: chunk rung up"
                    )
        if new_credits == credits and new_chunk == chunk:
            return []
        if new_credits != credits and self.window_actuator is not None:
            self.window_actuator(new_credits)
        if new_chunk != chunk and self.chunk_actuator is not None:
            self.chunk_actuator(new_chunk)
        self.credits, self.chunk_bytes = new_credits, new_chunk
        return [self._decision(
            step, t, f"window={new_credits} chunk={new_chunk}",
            "; ".join(why), True,
            previous_window=credits,
            previous_chunk=chunk,
            retry_rate=round(retry_rate, 6),
            ack_latency=round(ack, 9),
            inflight_peak=self._last_peak,
            coordinated=self._node_retry is not None,
        )]
