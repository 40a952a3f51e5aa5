"""Governors: feedback controllers wired to the transport's knobs.

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
owns the round.  The package docstring (:mod:`repro.control`)
tabulates all five; the two here (codec, flow) act on one sender, the
service and array governors live in their own modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.control.policy import EWMA, Hysteresis
from repro.hamr.runtime import current_clock
from repro.transport.wire import SERIALIZE_BANDWIDTH, get_codec
from repro.units import KiB

__all__ = [
    "Decision",
    "Governor",
    "CodecGovernor",
    "FlowBounds",
    "FlowGovernor",
]


@dataclass(frozen=True)
class Decision:
    """One governor verdict, logged whether or not it was applied.

    ``applied`` is False when the governor has no actuator;
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
    stranded.
    """

    name = "flow"
    replayed = True
    measured_args = ("retry_rate", "ack_latency", "inflight_peak")

    #: Hysteresis band on the retry-rate EWMA (low, high).
    RETRY_BAND = (0.01, 0.10)
    #: Credits added per additive-increase step.
    GROW = 1

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

    @property
    def retry_rate(self) -> float:
        """The retry-rate signal the next decision will act on."""
        return self._retry.get(0.0)

    @property
    def ack_estimate(self) -> float:
        """The ACK-latency signal the next decision will act on."""
        return self._ack.get(0.0)

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
        )]
