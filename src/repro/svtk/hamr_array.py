"""``svtkHAMRDataArray`` — the paper's data-model extension.

The HDA provides both host and device memory management as well as
programming-model interoperability, via the HAMR layer
(:mod:`repro.hamr`).  The API mirrors the paper's listings:

- construction for a particular PM/allocation strategy, optionally on a
  stream with an explicit synchronization mode (Listing 1, line 15);
- zero-copy construction around externally allocated host or device
  memory with coordinated life-cycle management (Listing 1);
- PM- and location-agnostic read access —
  :meth:`HAMRDataArray.get_cuda_accessible`,
  :meth:`~HAMRDataArray.get_hip_accessible`,
  :meth:`~HAMRDataArray.get_openmp_accessible`,
  :meth:`~HAMRDataArray.get_host_accessible` (Listings 3 and 4): direct
  access when the data is already accessible, an automatically managed
  temporary plus move otherwise;
- direct access (:meth:`~HAMRDataArray.get_data`) when location and PM
  are known (Listing 3, line 24);
- explicit synchronization (:meth:`~HAMRDataArray.synchronize`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ShapeMismatchError, UninitializedArrayError
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind
from repro.hamr.buffer import Buffer
from repro.hamr.runtime import get_active_device
from repro.hamr.stream import Stream, StreamMode
from repro.hamr.view import SharedView, accessible_view
from repro.hw.clock import SimClock
from repro.svtk.data_array import DataArray

__all__ = [
    "HAMRDataArray",
    "HAMRDoubleArray",
]


class HAMRDataArray(DataArray):
    """Heterogeneous-architecture data array (the HDA).

    Instances are created with :meth:`new` (allocating) or
    :meth:`zero_copy` (wrapping existing memory).  A default-constructed
    instance is *uninitialized*; :meth:`initialize` gives it storage, as
    the paper's API allows ("APIs exist to initialize a default
    constructed instance as well").
    """

    #: Subclasses may pin the component type (``svtkHAMRDoubleArray``...).
    fixed_dtype: np.dtype | None = None

    def __init__(self, name: str = "", n_components: int = 1):
        super().__init__(name, n_components)
        self._buffer: Buffer | None = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def new(
        cls,
        name: str,
        n_tuples: int,
        n_components: int = 1,
        allocator: Allocator = Allocator.MALLOC,
        stream: Stream | None = None,
        stream_mode: StreamMode = StreamMode.SYNC,
        device_id: int | None = None,
        dtype=None,
    ) -> "HAMRDataArray":
        """Allocate a new array for a particular PM/allocation strategy.

        Device allocators place memory on the currently active device
        unless ``device_id`` says otherwise.  With an asynchronous
        ``stream_mode`` the call returns while the allocation is in
        flight.
        """
        arr = cls(name, n_components)
        arr.initialize(
            n_tuples,
            allocator=allocator,
            stream=stream,
            stream_mode=stream_mode,
            device_id=device_id,
            dtype=dtype,
        )
        return arr

    @classmethod
    def zero_copy(
        cls,
        name: str,
        data: np.ndarray,
        n_components: int = 1,
        allocator: Allocator = Allocator.MALLOC,
        stream: Stream | None = None,
        stream_mode: StreamMode = StreamMode.SYNC,
        device_id: int | None = None,
        owner: object = None,
        deleter: Callable[[], None] | None = None,
    ) -> "HAMRDataArray":
        """Zero-copy construct around externally allocated memory.

        This is the paper's Listing 1: the simulation shares its device
        pointer with SENSEI, together with the additional information a
        heterogeneous transfer needs — the allocator (PM), the device
        the memory resides on, and the stream/mode governing ordering.
        ``owner`` keeps a shared owner alive (smart-pointer hand-off);
        ``deleter`` supports raw-pointer hand-offs where the caller
        manages the life cycle.
        """
        arr = cls(name, n_components)
        data = np.asarray(data)
        if cls.fixed_dtype is not None and data.dtype != cls.fixed_dtype:
            raise ShapeMismatchError(
                f"{cls.__name__} requires dtype {cls.fixed_dtype}, got {data.dtype}"
            )
        if data.size % arr.n_components:
            raise ShapeMismatchError(
                f"{data.size} values not divisible by {arr.n_components} components"
            )
        arr._buffer = Buffer.wrap(
            data,
            allocator=allocator,
            device_id=device_id,
            stream=stream,
            stream_mode=stream_mode,
            owner=owner,
            deleter=deleter,
            name=name,
        )
        return arr

    def initialize(
        self,
        n_tuples: int,
        allocator: Allocator = Allocator.MALLOC,
        stream: Stream | None = None,
        stream_mode: StreamMode = StreamMode.SYNC,
        device_id: int | None = None,
        dtype=None,
    ) -> None:
        """Give a default-constructed instance storage."""
        if self._buffer is not None:
            raise UninitializedArrayError(
                f"array {self.name!r} is already initialized"
            )
        if dtype is None:
            dtype = self.fixed_dtype if self.fixed_dtype is not None else np.float64
        elif self.fixed_dtype is not None and np.dtype(dtype) != self.fixed_dtype:
            raise ShapeMismatchError(
                f"{type(self).__name__} requires dtype {self.fixed_dtype}, got {dtype}"
            )
        self._buffer = Buffer.allocate(
            int(n_tuples) * self.n_components,
            dtype=dtype,
            allocator=allocator,
            device_id=device_id,
            stream=stream,
            stream_mode=stream_mode,
            name=self.name,
        )

    def _require_buffer(self) -> Buffer:
        if self._buffer is None:
            raise UninitializedArrayError(
                f"array {self.name!r} used before initialization"
            )
        return self._buffer

    @property
    def buffer(self) -> Buffer:
        """The managed allocation behind this array."""
        return self._require_buffer()

    @property
    def n_tuples(self) -> int:
        return self._require_buffer().size // self.n_components

    @property
    def dtype(self) -> np.dtype:
        return self._require_buffer().dtype

    @property
    def allocator(self) -> Allocator:
        return self._require_buffer().allocator

    @property
    def device_id(self) -> int:
        """Device the data resides on (-1 = host)."""
        buf = self._require_buffer()
        return HOST_DEVICE_ID if buf.on_host else buf.device_id

    @property
    def on_host(self) -> bool:
        return self._require_buffer().on_host

    # -- PM/location agnostic access ---------------------------------------------
    def get_accessible(
        self,
        pm: PMKind,
        device_id: int | None = None,
        stream: Stream | None = None,
        mode: StreamMode | None = None,
    ) -> SharedView:
        """Read access in ``pm`` at a location of the caller's choosing.

        If the data is already accessible on the requested device in the
        requested PM, no additional work is done and direct access is
        granted.  Otherwise a temporary is allocated, the data is moved,
        and the returned shared view cleans the temporary up when it
        goes out of scope.
        """
        buf = self._require_buffer()
        if device_id is None:
            device_id = HOST_DEVICE_ID if pm is PMKind.HOST else get_active_device()
        return accessible_view(buf, pm, device_id, stream=stream, mode=mode)

    def get_host_accessible(self, stream: Stream | None = None,
                            mode: StreamMode | None = None) -> SharedView:
        """A view readable on the host (Listing 4's ``GetHostAccessible``)."""
        return self.get_accessible(PMKind.HOST, HOST_DEVICE_ID, stream, mode)

    def get_cuda_accessible(self, device_id: int | None = None,
                            stream: Stream | None = None,
                            mode: StreamMode | None = None) -> SharedView:
        """A view readable from CUDA on the active (or given) device."""
        return self.get_accessible(PMKind.CUDA, device_id, stream, mode)

    def get_hip_accessible(self, device_id: int | None = None,
                           stream: Stream | None = None,
                           mode: StreamMode | None = None) -> SharedView:
        """A view readable from HIP on the active (or given) device."""
        return self.get_accessible(PMKind.HIP, device_id, stream, mode)

    def get_openmp_accessible(self, device_id: int | None = None,
                              stream: Stream | None = None,
                              mode: StreamMode | None = None) -> SharedView:
        """A view readable from OpenMP offload on the active (or given) device."""
        return self.get_accessible(PMKind.OPENMP, device_id, stream, mode)

    def get_sycl_accessible(self, device_id: int | None = None,
                            stream: Stream | None = None,
                            mode: StreamMode | None = None) -> SharedView:
        """A view readable from SYCL on the active (or given) device.

        SYCL support is the paper's Section 5 future work, implemented
        here as an extension.
        """
        return self.get_accessible(PMKind.SYCL, device_id, stream, mode)

    def get_kokkos_accessible(self, device_id: int | None = None,
                              stream: Stream | None = None,
                              mode: StreamMode | None = None) -> SharedView:
        """A view readable from Kokkos on the active (or given) device.

        Kokkos support is the paper's Section 5 future work, implemented
        here as an extension.
        """
        return self.get_accessible(PMKind.KOKKOS, device_id, stream, mode)

    # -- direct access ---------------------------------------------------------------
    def get_data(self) -> np.ndarray:
        """Direct access to the raw storage (Listing 3, line 24).

        Legal only when the caller knows the location and PM — e.g. for
        an array it just allocated in place.
        """
        # This *is* the sanctioned direct-access API (paper's GetData).
        return self._require_buffer().data  # lint: disable=HL001

    # -- operations ----------------------------------------------------------------
    def fill(self, value: float) -> None:
        """Set every component to ``value``."""
        self._require_buffer().fill(value)

    def synchronize(self, clock: SimClock | None = None) -> float:
        """Wait for in-flight operations (moves, fills, kernels) to land."""
        return self._require_buffer().synchronize(clock)

    def delete(self) -> None:
        """Release the container (the paper's ``simData->Delete()``).

        For zero-copy arrays with a shared owner this drops the HDA's
        reference; the external memory lives on until its owner releases
        it.  For allocating arrays the storage is freed.
        """
        if self._buffer is not None:
            self._buffer.free()
            self._buffer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._buffer is None:
            return f"{type(self).__name__}({self.name!r}, uninitialized)"
        loc = "host" if self.on_host else f"dev{self.device_id}"
        return (
            f"{type(self).__name__}({self.name!r}, n_tuples={self.n_tuples}, "
            f"n_components={self.n_components}, alloc={self.allocator.name}, "
            f"loc={loc})"
        )


class HAMRDoubleArray(HAMRDataArray):
    """``svtkHAMRDoubleArray`` — float64 components."""

    fixed_dtype = np.dtype(np.float64)
