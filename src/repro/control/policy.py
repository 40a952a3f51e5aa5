"""Controller primitives: an estimator and a hysteresis band.

These are the reusable decision mechanics the governors compose.  Both
are pure functions of their inputs, so every governor built on them is
deterministic.
"""

from __future__ import annotations

__all__ = ["EWMA", "Hysteresis"]


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

    def reset(self) -> None:
        self._value = None


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
