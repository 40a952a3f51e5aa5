"""The ``svtkAllocator`` enumeration and its capability queries.

An allocator value selects the programming model (PM), and the specific
method within that PM, used to allocate and subsequently manage a piece
of memory.  The set mirrors the paper's Section 2: "SENSEI currently
supports OpenMP offload, CUDA, and HIP allocators as well as host only
allocators using malloc, and new.  The CUDA and HIP allocators come in
synchronous and asynchronous variants, variants that allocate
universally addressable memory, as well as variants for allocating page
locked memory."
"""

from __future__ import annotations

import enum

from repro.errors import InvalidAllocatorError

__all__ = ["PMKind", "Allocator", "HOST_DEVICE_ID", "default_allocator_for"]


#: Device ordinal used to denote host memory throughout the package.
HOST_DEVICE_ID = -1


class PMKind(enum.Enum):
    """The programming models the data model interoperates between.

    CUDA, HIP, OpenMP offload, and host are what the paper ships;
    SYCL and Kokkos are the additions its Section 5 plans ("We will
    also add support for SYCL as well as third party PMs such as
    Kokkos"), implemented here.
    """

    HOST = "host"
    CUDA = "cuda"
    HIP = "hip"
    OPENMP = "openmp"
    SYCL = "sycl"
    KOKKOS = "kokkos"


#: The capability sets, by allocator value (the class resolves them
#: into per-member attributes once).
_PM_OF = {
    "malloc": PMKind.HOST, "new": PMKind.HOST,
    "cuda": PMKind.CUDA, "cuda_async": PMKind.CUDA,
    "cuda_uva": PMKind.CUDA, "cuda_host": PMKind.CUDA,
    "hip": PMKind.HIP, "hip_async": PMKind.HIP,
    "hip_uva": PMKind.HIP, "hip_host": PMKind.HIP,
    "openmp": PMKind.OPENMP,
    "sycl": PMKind.SYCL, "sycl_shared": PMKind.SYCL, "sycl_host": PMKind.SYCL,
    "kokkos": PMKind.KOKKOS,
}
_HOST_RESIDENT = {"malloc", "new", "cuda_host", "hip_host", "sycl_host"}
_ASYNC = {"cuda_async", "hip_async"}
_UVA = {"cuda_uva", "hip_uva", "sycl_shared"}
_PINNED_HOST = {"cuda_host", "hip_host", "sycl_host"}


class Allocator(enum.Enum):
    """Which PM, and which method within the PM, manages an allocation."""

    # Host-only allocators.
    MALLOC = "malloc"
    NEW = "new"

    # CUDA PM.
    CUDA = "cuda"                      # cudaMalloc
    CUDA_ASYNC = "cuda_async"          # cudaMallocAsync (stream ordered)
    CUDA_UVA = "cuda_uva"              # cudaMallocManaged (universally addressable)
    CUDA_HOST = "cuda_host"            # cudaMallocHost (page-locked host)

    # HIP PM.
    HIP = "hip"
    HIP_ASYNC = "hip_async"
    HIP_UVA = "hip_uva"
    HIP_HOST = "hip_host"

    # OpenMP device offload (omp_target_alloc).
    OPENMP = "openmp"

    # SYCL unified shared memory (paper Section 5 future work).
    SYCL = "sycl"                      # sycl::malloc_device
    SYCL_SHARED = "sycl_shared"        # sycl::malloc_shared (migratable)
    SYCL_HOST = "sycl_host"            # sycl::malloc_host (device-visible host)

    # Kokkos memory spaces (paper Section 5 future work).
    KOKKOS = "kokkos"                  # Kokkos::kokkos_malloc<DeviceSpace>()

    # -- capability queries: resolved once per member -----------------------
    def __init__(self, value: str):
        #: The programming model that owns allocations of this kind.
        self.pm_kind = _PM_OF[value]
        #: Allocations live in host memory (pinned ones included).
        self.is_host_resident = value in _HOST_RESIDENT
        #: Allocations live in device memory.
        self.is_device_resident = not self.is_host_resident
        #: Stream-ordered allocation variants.
        self.is_async = value in _ASYNC
        #: Universally addressable (managed/unified) variants.
        self.is_uva = value in _UVA
        #: Device-visible (page-locked) host variants.
        self.is_pinned_host = value in _PINNED_HOST

    def validate_device(self, device_id: int) -> None:
        """Raise unless ``device_id`` is legal for this allocator."""
        if self.is_host_resident:
            if device_id != HOST_DEVICE_ID:
                raise InvalidAllocatorError(
                    f"host allocator {self.name} cannot target device {device_id}"
                )
        else:
            if device_id < 0:
                raise InvalidAllocatorError(
                    f"device allocator {self.name} requires a device, "
                    f"got device_id={device_id}"
                )


#: Each device PM's plain device allocator (OpenMP has only one).
_DEVICE_ALLOCATOR_OF = {
    PMKind.CUDA: Allocator.CUDA,
    PMKind.HIP: Allocator.HIP,
    PMKind.OPENMP: Allocator.OPENMP,
    PMKind.SYCL: Allocator.SYCL,
    PMKind.KOKKOS: Allocator.KOKKOS,
}


def default_allocator_for(pm: PMKind, device_id: int) -> Allocator:
    """The allocator a PM-agnostic move targets for a given location.

    Host destinations use ``MALLOC``; device destinations use the
    requesting PM's plain device allocator.
    """
    if device_id == HOST_DEVICE_ID:
        return Allocator.MALLOC
    try:
        return _DEVICE_ALLOCATOR_OF[pm]
    except KeyError:
        raise InvalidAllocatorError(
            f"PM {pm} cannot allocate on device {device_id}; "
            "host PM allocations must target host memory"
        ) from None
