"""The data-movement engine.

Moves bytes between memory spaces on a node, charging the simulated
link costs from :class:`~repro.hw.spec.LinkSpec` and preserving
stream-ordering semantics: a copy may not begin before its source is
ready, and its completion gates consumers that synchronize on either
side.

Same-space transfers are *deep copies* (read + write through the local
memory system) — the operation the paper's asynchronous execution
method performs before launching the in situ thread.
"""

from __future__ import annotations

import numpy as np

from repro.hamr.allocator import (
    HOST_DEVICE_ID,
    Allocator,
    PMKind,
    default_allocator_for,
)
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import current_clock
from repro.hamr.stream import Stream, StreamMode, copy_stream, default_stream
from repro.hw.clock import EventCategory, SimClock
from repro.hw.node import get_node

__all__ = ["transfer", "transfer_duration"]


def transfer_duration(nbytes: int, src_device: int, dst_device: int, pinned: bool = False) -> float:
    """Simulated duration of moving ``nbytes`` between two spaces.

    Same-space "moves" are deep copies through local memory; the cost is
    a read plus a write at the space's bandwidth.
    """
    node = get_node()
    if src_device == dst_device:
        bw = node.resource(src_device).spec.mem_bandwidth
        return node.spec.link.latency + 2.0 * int(nbytes) / bw
    return node.transfer_time(nbytes, src_device, dst_device, pinned=pinned)


def transfer(
    src: Buffer,
    device_id: int,
    pm: PMKind = PMKind.HOST,
    allocator: Allocator | None = None,
    stream: Stream | None = None,
    mode: StreamMode | None = None,
    clock: SimClock | None = None,
    name: str = "",
) -> Buffer:
    """Deep copy ``src`` into a new buffer in the requested space.

    The new buffer is allocated with ``allocator`` (default: the natural
    allocator for ``pm`` at the destination).  The copy is ordered after
    any in-flight work on ``src``; in ``ASYNC`` mode the call returns
    while the move is in progress and both buffers carry the completion
    as a pending event.
    """
    if clock is None:
        clock = current_clock()
    if mode is None:
        mode = src.stream_mode
    if allocator is None:
        allocator = default_allocator_for(pm, device_id)
    src_host = src.allocator.is_host_resident
    dst_host = allocator.is_host_resident
    if stream is None:
        # Order the move where an async memcpy would be ordered: on the
        # source device's dedicated copy stream (the DMA-engine lane).
        # Not the node-wide host stream — its shared cursor would
        # serialize unrelated ranks' D2H staging in wall-clock arrival
        # order — and not the device's compute stream, whose later
        # kernels must overlap the copy.  ``after`` below still orders
        # the copy behind the source's in-flight producer.  Any
        # device-resident destination keeps the destination device's
        # default stream (the allocation must be ordered there).
        if (device_id == HOST_DEVICE_ID or dst_host) and not src_host:
            stream = copy_stream(src.device_id)
        else:
            stream = default_stream(device_id)

    dst_loc = HOST_DEVICE_ID if dst_host else device_id
    dst = Buffer.allocate(
        src.size, src.dtype, allocator, dst_loc, stream, mode,
        name or f"copy-of-{src.name}", clock,
    )
    # The movement engine sits below the view layer; it is the code
    # that makes everyone else's access legal.
    np.copyto(dst.data, src.data)  # lint: disable=HL001

    pinned = src.allocator.is_pinned_host or allocator.is_pinned_host
    dur = transfer_duration(
        src.nbytes, HOST_DEVICE_ID if src_host else src.device_id, dst_loc,
        pinned=pinned,
    )
    ev = stream.enqueue(
        clock, dur, f"copy {src.name}->{dst.name}", EventCategory.COPY, mode,
        max(src.ready_at, dst.ready_at),
    )
    src.mark_pending(ev)
    dst.mark_pending(ev)
    return dst
