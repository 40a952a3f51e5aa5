"""In situ placement: manual and automatic device selection.

Implements the paper's Section 3 placement control: "we implemented
means for both manual explicit device selection and automatic device
selection.  Automatic device selection uses a number of run time
provided control parameters along with the process's MPI rank and the
number of on node devices to select a device to execute on according
to the following rule:

    d = (r mod n_u * s + d_0) mod n_a                            (1)

where: d is the assigned device; r is the MPI rank of the process
making the query; n_u is the number of devices to use per node; s is
the stride, d_0 is the offset, and n_a is the total number of devices
available on the node.  r and n_a are initialized from system queries,
while n_u, s, and d_0 can optionally be specified by the user.  By
default, n_u = n_a, s = 1, and d_0 = 0."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.hw.node import num_devices

__all__ = ["PlacementMode", "DevicePlacement", "select_device"]


def select_device(
    rank: int,
    n_available: int | None = None,
    n_use: int | None = None,
    stride: int = 1,
    offset: int = 0,
) -> int:
    """Automatic device selection — Eq. 1 of the paper.

    ``rank`` and ``n_available`` come from system queries (``n_available``
    defaults to the current node's device count); ``n_use``, ``stride``,
    and ``offset`` are the user-tunable control parameters with defaults
    ``n_use = n_available``, ``stride = 1``, ``offset = 0``.

    ``stride`` must be >= 1: a zero stride would silently collapse all
    ranks onto ``offset``, and a negative stride walks the devices
    backwards in a surprising order — both are config errors, not
    placements.  A negative ``offset`` is allowed and wraps modulo
    ``n_available`` (Python's ``%`` is non-negative for positive
    moduli), so ``offset=-1`` aims at the node's last device.
    """
    if n_available is None:
        n_available = num_devices()
    if n_available < 1:
        raise PlacementError("no devices available on this node")
    if n_use is None:
        n_use = n_available
    if n_use < 1:
        raise PlacementError(f"n_use must be >= 1, got {n_use}")
    if stride < 1:
        raise PlacementError(f"stride must be >= 1, got {stride}")
    if rank < 0:
        raise PlacementError(f"rank must be >= 0, got {rank}")
    # Eq. 1 with C precedence: ((r % n_u) * s + d_0) % n_a.
    return (rank % n_use * stride + offset) % n_available


class PlacementMode(enum.Enum):
    """Where the in situ code runs."""

    HOST = "host"       # analysis on the CPU
    AUTO = "auto"       # device chosen by Eq. 1
    MANUAL = "manual"   # device given explicitly

    @classmethod
    def parse(cls, text: str) -> "PlacementMode":
        key = str(text).strip().lower()
        for mode in cls:
            if mode.value == key:
                return mode
        raise PlacementError(
            f"unknown placement {text!r}; supported: {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class DevicePlacement:
    """A resolved-on-demand placement policy.

    ``resolve(rank)`` answers "on which device does this rank's in situ
    code run?" — ``HOST_DEVICE_ID`` for host placement.
    """

    mode: PlacementMode = PlacementMode.AUTO
    device_id: int = 0          # MANUAL only
    n_use: int | None = None    # AUTO: devices to use per node (n_u)
    stride: int = 1             # AUTO: s
    offset: int = 0             # AUTO: d_0

    def __post_init__(self):
        if self.mode is PlacementMode.MANUAL and self.device_id < HOST_DEVICE_ID:
            raise PlacementError(f"invalid manual device id: {self.device_id}")
        if self.n_use is not None and self.n_use < 1:
            raise PlacementError(f"n_use must be >= 1, got {self.n_use}")
        if self.stride < 1:
            raise PlacementError(f"stride must be >= 1, got {self.stride}")

    @classmethod
    def host(cls) -> "DevicePlacement":
        return cls(mode=PlacementMode.HOST)

    @classmethod
    def manual(cls, device_id: int) -> "DevicePlacement":
        return cls(mode=PlacementMode.MANUAL, device_id=int(device_id))

    @classmethod
    def auto(cls, n_use: int | None = None, stride: int = 1, offset: int = 0) -> "DevicePlacement":
        return cls(mode=PlacementMode.AUTO, n_use=n_use, stride=stride, offset=offset)

    def resolve(self, rank: int, n_available: int | None = None) -> int:
        """The device this rank's analysis executes on (-1 = host)."""
        if self.mode is PlacementMode.HOST:
            return HOST_DEVICE_ID
        if self.mode is PlacementMode.MANUAL:
            if n_available is None:
                n_available = num_devices()
            if self.device_id >= n_available:
                raise PlacementError(
                    f"manual device {self.device_id} does not exist "
                    f"(node has {n_available})"
                )
            return self.device_id
        return select_device(
            rank,
            n_available=n_available,
            n_use=self.n_use,
            stride=self.stride,
            offset=self.offset,
        )
