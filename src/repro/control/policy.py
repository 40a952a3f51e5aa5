"""Controller primitives: an estimator, a hysteresis band, a skew gate.

These are the reusable decision mechanics the governors compose.  All
are pure functions of their inputs, so every governor built on them is
deterministic.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["EWMA", "Hysteresis", "SkewGate"]


class EWMA:
    """Exponentially weighted moving average of a noisy signal.

    ``alpha`` is the weight of the newest sample; ``value`` is ``None``
    until the first update (so consumers can distinguish "no estimate
    yet" from an estimate of zero).
    """

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self._value: float | None = None

    @property
    def value(self) -> float | None:
        return self._value

    def get(self, default: float = 0.0) -> float:
        return self._value if self._value is not None else default

    def update(self, x: float) -> float:
        if self._value is None:
            self._value = float(x)
        else:
            self._value += self.alpha * (float(x) - self._value)
        return self._value


class Hysteresis:
    """A two-threshold (Schmitt trigger) band over a scalar signal.

    The state flips to True only when the signal rises above ``high``
    and back to False only when it falls below ``low`` — values inside
    the band keep the current state, which is what stops a governor
    from flapping on a signal that hovers near a single threshold.
    """

    def __init__(self, low: float, high: float, state: bool = False):
        if low > high:
            raise ValueError(f"need low <= high, got {low} > {high}")
        self.low = float(low)
        self.high = float(high)
        self.state = bool(state)

    def update(self, value: float) -> bool:
        if value > self.high:
            self.state = True
        elif value < self.low:
            self.state = False
        return self.state


class SkewGate:
    """The trigger the two movers (shard migration, array re-cut) share.

    A ``max / mean`` threshold over per-bin load, the guard refusing a
    move that does not lower the worst bin, and a cooldown of
    ``cooldown`` rounds after every applied move so the new layout is
    observed before it is judged again.  Which unit moves where stays
    with each governor.
    """

    def __init__(self, skew: float, cooldown: int):
        if skew <= 1.0:
            raise ValueError(f"skew threshold must be > 1: {skew}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {cooldown}")
        self.skew = float(skew)
        self.cooldown = int(cooldown)
        self._hold = 0

    @staticmethod
    def ratio(values: Sequence[float]) -> float:
        """max / mean, or 0 when the signal is silent."""
        total = float(sum(values))
        if total <= 0.0:
            return 0.0
        return max(float(v) for v in values) * len(values) / total

    def cooling(self) -> bool:
        """True while settling after a move (consumes one round)."""
        if self._hold > 0:
            self._hold -= 1
            return True
        return False

    def tripped(self, *ratios: float) -> bool:
        return max(ratios) >= self.skew

    @staticmethod
    def improves(worst_before: float, worst_after: float) -> bool:
        return worst_after < worst_before

    def moved(self) -> None:
        """An applied move starts the cooldown."""
        self._hold = self.cooldown
