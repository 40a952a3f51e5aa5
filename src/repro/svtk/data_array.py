"""The ``svtkDataArray`` abstraction and the stock host-only subclass.

In the SENSEI data model the abstract ``svtkDataArray`` defines the
interfaces for managing and accessing array-based data; mesh geometry
and node/cell-centered data are built on top of it.  The subclasses
available in stock VTK are designed for host-only memory management —
:class:`HostDataArray` reproduces that baseline, and
:mod:`repro.svtk.hamr_array` adds the heterogeneous subclass the paper
contributes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ShapeMismatchError, UninitializedArrayError
from repro.hamr.view import SharedView
from repro.hw.clock import SimClock

__all__ = ["DataArray", "HostDataArray"]


class DataArray(ABC):
    """Abstract base for named, tuple-structured arrays.

    An array holds ``n_tuples`` tuples of ``n_components`` scalar
    components (VTK's layout).  Subclasses decide where the bytes live;
    consumers that need portable access go through
    :meth:`get_host_accessible` and friends.
    """

    def __init__(self, name: str, n_components: int = 1):
        if n_components < 1:
            raise ShapeMismatchError(f"n_components must be >= 1: {n_components}")
        self.name = str(name)
        self._n_components = int(n_components)

    # -- shape -----------------------------------------------------------------
    @property
    def n_components(self) -> int:
        return self._n_components

    @property
    @abstractmethod
    def n_tuples(self) -> int:
        """Number of tuples (``GetNumberOfTuples``)."""

    @property
    def n_values(self) -> int:
        return self.n_tuples * self.n_components

    @property
    @abstractmethod
    def dtype(self) -> np.dtype:
        """Component scalar type."""

    @property
    def nbytes(self) -> int:
        """Raw payload bytes: ``n_values`` scalars of ``dtype``."""
        return int(self.n_values) * np.dtype(self.dtype).itemsize

    # -- access ------------------------------------------------------------------
    @abstractmethod
    def get_host_accessible(self) -> SharedView:
        """A view of the data readable on the host.

        If the data is already host-resident the view is zero-copy;
        otherwise a managed temporary is created and the data moved.
        Callers must :meth:`synchronize` before dereferencing if the
        array operates asynchronously.
        """

    @abstractmethod
    def synchronize(self, clock: SimClock | None = None) -> float:
        """Wait for in-flight operations on this array to complete."""

    # -- convenience -----------------------------------------------------------
    def as_numpy_host(self) -> np.ndarray:
        """Synchronized host copy/view shaped ``(n_tuples, n_components)``.

        Convenience for analysis and test code; production consumers use
        the view API to control temporary lifetime explicitly.
        """
        view = self.get_host_accessible()
        self.synchronize()
        arr = view.get()
        if self.n_components > 1:
            arr = arr.reshape(self.n_tuples, self.n_components)
        # Take a copy if the view owns a temporary that would die with it.
        return np.array(arr, copy=True) if view.is_temporary else arr

    def __len__(self) -> int:
        return self.n_tuples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, n_tuples={self.n_tuples}, "
            f"n_components={self.n_components}, dtype={self.dtype})"
        )


class HostDataArray(DataArray):
    """The stock VTK-style, host-only data array.

    Exists as the baseline the HDA extends — and so that tests can
    demonstrate what the extension buys: this class cannot represent
    device-resident data at all.
    """

    def __init__(self, name: str, data: np.ndarray, n_components: int = 1):
        super().__init__(name, n_components)
        data = np.ascontiguousarray(data)
        if data.ndim == 2:
            if data.shape[1] != n_components:
                raise ShapeMismatchError(
                    f"2-D input has {data.shape[1]} components, expected {n_components}"
                )
            data = data.reshape(-1)
        elif data.ndim != 1:
            raise ShapeMismatchError(f"expected 1-D or 2-D data, got ndim={data.ndim}")
        if data.size % n_components:
            raise ShapeMismatchError(
                f"{data.size} values not divisible by {n_components} components"
            )
        self._data = data

    @classmethod
    def empty(cls, name: str, n_tuples: int, n_components: int = 1, dtype=np.float64):
        return cls(
            name, np.empty(int(n_tuples) * int(n_components), dtype=dtype), n_components
        )

    @property
    def n_tuples(self) -> int:
        return self._data.size // self._n_components

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def data(self) -> np.ndarray:
        return self._data

    def get_host_accessible(self) -> SharedView:
        # Host arrays are trivially accessible in place; reuse SharedView
        # so consumers are agnostic to the array subclass.
        return SharedView(self._data)

    def synchronize(self, clock: SimClock | None = None) -> float:
        if self._data is None:  # pragma: no cover - cannot happen post-init
            raise UninitializedArrayError(self.name)
        return 0.0
