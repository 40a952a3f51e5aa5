"""Transport configuration: the data plane's knobs as one dataclass.

``drop``/``duplicate``/``reorder``/``corrupt`` are fault-injection
probabilities applied to the data direction only — they exist so a
run can rehearse lossy-fabric behaviour without code changes.

``compression`` accepts any registered codec name, or ``"adaptive"``
to delegate the choice to the control plane's per-endpoint codec
governor (see :mod:`repro.control`): the sender starts uncompressed
and switches once the governor has measured the link bandwidth and
the achievable ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.transport.channel import FaultSpec
from repro.transport.retry import RetryPolicy
from repro.transport.wire import DEFAULT_CHUNK_BYTES, available_codecs

__all__ = ["TransportConfig"]


@dataclass(frozen=True)
class TransportConfig:
    """Everything the transport plane needs for one run."""

    compression: str = "none"
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    max_inflight: int = 8
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: Pipelined wire-cost model: the sender charges each chunk
    #: ``latency / in_flight + bytes / bandwidth``, so a deeper credit
    #: window amortizes link latency (and the flow governor has a real
    #: trade-off to optimize).  Off by default: the classic model
    #: charges every frame serially through the communicator.
    pipelined: bool = False

    def __post_init__(self):
        if (
            self.compression != "adaptive"
            and self.compression not in available_codecs()
        ):
            raise ConfigError(
                f"unknown codec {self.compression!r}; available: "
                f"{', '.join(available_codecs())} (or 'adaptive' to let "
                "the control plane's codec governor choose per endpoint)"
            )
        if self.chunk_bytes < 1:
            raise ConfigError(f"chunk_bytes must be >= 1: {self.chunk_bytes}")
        if self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1: {self.max_inflight}")

    @property
    def adaptive(self) -> bool:
        """True when codec selection is delegated to the control plane."""
        return self.compression == "adaptive"

    @property
    def initial_codec(self) -> str:
        """The codec a sender starts with.

        Adaptive runs start uncompressed — the cheap choice on a good
        link — and let the codec governor switch once it has measured
        the link and the achievable ratio.
        """
        return "none" if self.adaptive else self.compression

    def with_faults(self, **kwargs) -> "TransportConfig":
        """A copy with fault-injection fields overridden."""
        return replace(self, faults=replace(self.faults, **kwargs))
