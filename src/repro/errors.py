"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SanitizerError",
    "AllocationError",
    "DeviceOutOfMemoryError",
    "InvalidAllocatorError",
    "StreamError",
    "LocationError",
    "InteropError",
    "UninitializedArrayError",
    "ShapeMismatchError",
    "MPIError",
    "RankMismatchError",
    "DeadlockError",
    "TransportError",
    "ConfigError",
    "PlacementError",
    "ExecutionError",
    "SolverError",
    "BinningError",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`.

    ``details`` carries structured context about the failure — for
    memory/stream errors the offending buffer name, device id, and
    stream mode — in the same ``{key: value}`` format the static
    analyzer's findings and the runtime sanitizer's violation reports
    use (:mod:`repro.analysis`), so exceptions and reports line up.
    """

    def __init__(self, *args, details: dict | None = None):
        super().__init__(*args)
        self.details: dict = dict(details) if details else {}


class SanitizerError(ReproError):
    """The runtime sanitizer detected an illegal access pattern.

    Raised by :class:`repro.analysis.sanitizer.Sanitizer` in ``raise``
    mode; ``details`` names the buffer, device, stream mode, and the
    violation ``kind`` (cross-location-read, use-after-free,
    write-while-analyzing).
    """


class AllocationError(ReproError):
    """A memory allocation request could not be satisfied."""


class DeviceOutOfMemoryError(AllocationError):
    """A virtual device ran out of simulated memory capacity."""

    def __init__(self, device: object, requested: int, available: int):
        self.device = device
        self.requested = int(requested)
        self.available = int(available)
        super().__init__(
            f"device {device} out of memory: requested {requested} bytes, "
            f"{available} bytes available",
            details={
                "device_id": getattr(device, "device_id", str(device)),
                "requested": int(requested),
                "available": int(available),
            },
        )


class InvalidAllocatorError(AllocationError):
    """An allocator was used with an incompatible device or PM."""


class StreamError(ReproError):
    """Invalid use of a stream (wrong device, closed stream, ...)."""


class LocationError(ReproError):
    """Data was not where an operation required it to be."""


class InteropError(ReproError):
    """Two programming models could not interoperate as requested."""


class UninitializedArrayError(ReproError):
    """A data array was used before it was initialized."""


class ShapeMismatchError(ReproError):
    """Array shapes/lengths incompatible for the requested operation."""


class MPIError(ReproError):
    """Failure in the simulated MPI layer."""


class RankMismatchError(MPIError):
    """A collective was invoked with inconsistent participation."""


class DeadlockError(MPIError):
    """No blocked execution context of an SPMD run can ever be woken.

    Raised in every context parked on the run's wait table
    (:mod:`repro.mpi.waits`) when the last live context parks, when a
    rank finishes and strands the rest, or when a rank raises.
    ``details["cause"]`` says which; ``details["parked"]`` lists each
    parked context (``context``), what it waits on (``waits_on``) and
    the non-empty mailboxes addressed to it (``mailboxes``);
    ``details["finished"]`` names the contexts that already returned.
    """


class TransportError(MPIError):
    """Failure in the data-transport plane (:mod:`repro.transport`).

    Raised for wire-format violations (unknown codec, version or
    checksum mismatch on a complete set) and for delivery giving up
    (retry budget exhausted); ``details`` carries the
    peer, step, and sequence context.
    """


class ArrayError(ReproError):
    """Failure in the distributed-array plane (:mod:`repro.array`).

    Raised for invalid partitions (fewer blocks than ranks), global
    indices outside the array, non-unit-stride slices, and misuse of
    the SPMD collectives; ``details`` carries the rank/shape context.
    """


class ConfigError(ReproError):
    """Malformed or semantically invalid run-time XML configuration."""


class PlacementError(ReproError):
    """An in situ placement request could not be honored."""


class ExecutionError(ReproError):
    """Failure while executing an analysis back-end."""


class SolverError(ReproError):
    """Failure inside the Newton++ solver."""


class BinningError(ReproError):
    """Failure inside the data-binning analysis."""


class TraceError(ReproError):
    """Failure in the trace record/replay plane (:mod:`repro.trace`)."""


class TraceFormatError(TraceError):
    """A trace file is malformed (bad JSON, unknown kind, bad footer)."""


class TraceVersionError(TraceError):
    """A trace file carries an unsupported format version."""
