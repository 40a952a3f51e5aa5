"""Kernel launch on virtual devices.

A kernel here is a Python callable operating on the numpy arrays behind
a set of buffers.  The callable runs eagerly (numerics are real), while
the simulated duration — from the target resource's roofline model — is
scheduled on a stream, whose timeline is a lane of the device.  Output
buffers carry the completion event as a pending dependency, so
downstream synchronization behaves exactly as stream-ordered device
work does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import InteropError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import Stream, StreamMode, default_stream
from repro.hw.clock import EventCategory, SimClock, TimedEvent
from repro.hw.node import get_node

__all__ = ["KernelCost", "launch"]


@dataclass(frozen=True)
class KernelCost:
    """Work descriptor used to derive a kernel's simulated duration."""

    flops: float = 0.0
    bytes_moved: float = 0.0
    atomic_fraction: float = 0.0

    def __add__(self, other: "KernelCost") -> "KernelCost":
        total_bytes = self.bytes_moved + other.bytes_moved
        if total_bytes > 0:
            atomic = (
                self.bytes_moved * self.atomic_fraction
                + other.bytes_moved * other.atomic_fraction
            ) / total_bytes
        else:
            atomic = 0.0
        return KernelCost(self.flops + other.flops, total_bytes, atomic)


def launch(
    fn: Callable[..., object],
    reads: Sequence[Buffer] = (),
    writes: Sequence[Buffer] = (),
    device_id: int = HOST_DEVICE_ID,
    flops: float = 0.0,
    bytes_moved: float = 0.0,
    atomic_fraction: float = 0.0,
    stream: Stream | None = None,
    mode: StreamMode = StreamMode.SYNC,
    clock: SimClock | None = None,
    name: str = "kernel",
    cores: int | None = None,
) -> TimedEvent:
    """Execute ``fn(*read_arrays, *write_arrays)`` as a device kernel.

    Parameters
    ----------
    fn:
        Callable receiving the read arrays followed by the write arrays.
        Its return value is ignored; results go into the write arrays.
    reads, writes:
        Buffers the kernel consumes / produces.  All must already be
        accessible on ``device_id`` (use the access APIs to stage them);
        one that is not raises :class:`~repro.errors.InteropError`.
    device_id:
        Execution target; ``HOST_DEVICE_ID`` runs on the host CPU.
    flops, bytes_moved, atomic_fraction:
        Roofline work descriptor; see
        :meth:`repro.hw.device.VirtualDevice.kernel_time`.
    mode:
        ``SYNC`` blocks the issuing clock until completion; ``ASYNC``
        returns immediately with the completion pending on the stream
        and the write buffers.
    cores:
        For host execution, how many CPU cores the kernel may use.
    """
    if clock is None:
        clock = current_clock()
    resource = get_node().resource(device_id)
    if stream is None:
        stream = default_stream(device_id)

    # A kernel may not start before its operands are valid, nor touch
    # one it cannot address from where it runs.
    after = 0.0
    for b in (*reads, *writes):
        if not b.device_accessible(device_id):
            raise InteropError(
                f"kernel {name!r} on {resource.name} cannot access buffer "
                f"{b.name!r} resident on "
                f"{'host' if b.on_host else f'device {b.device_id}'}; "
                "obtain an accessible view first"
            )
        if b.ready_at > after:
            after = b.ready_at

    # Real numerics, simulated time.  The launcher is the execution
    # engine: operands were staged by the access APIs (launch's
    # contract) and the roofline duration is charged below.
    fn(*[b.data for b in reads], *[b.data for b in writes])  # lint: disable=HL001

    if resource.is_host:
        dur = resource.kernel_time(flops, bytes_moved, atomic_fraction, cores)
    else:
        dur = resource.kernel_time(flops, bytes_moved, atomic_fraction)

    ev = stream.enqueue(clock, dur, name, EventCategory.COMPUTE, mode, after)
    for b in writes:
        b.mark_pending(ev)
    return ev
