"""Tests for the PM taxonomy and the all-pairs interop guarantee.

The allocator table (:class:`repro.hamr.allocator.Allocator`) is the
one registry of PM facts; interop between any two PMs goes through
:func:`repro.hamr.view.accessible_view` and :func:`repro.pm.launch`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LocationError
from repro.hamr.allocator import (
    HOST_DEVICE_ID,
    Allocator,
    PMKind,
    default_allocator_for,
)
from repro.hamr.buffer import Buffer
from repro.hamr.view import accessible_view
from repro.pm.kernels import launch


def _family(pm: PMKind) -> set[Allocator]:
    return {a for a in Allocator if a.pm_kind is pm}


def _where(pm: PMKind, device_id: int) -> int:
    """Where ``pm`` code runs: the host PM only ever on the host."""
    return HOST_DEVICE_ID if pm is PMKind.HOST else device_id


def _buffer(pm: PMKind, device_id: int, values) -> Buffer:
    device_id = _where(pm, device_id)
    b = Buffer.allocate(
        len(values), np.float64, default_allocator_for(pm, device_id),
        device_id=device_id,
    )
    b.data[:] = values
    return b


class TestRegistry:
    def test_all_kinds_registered(self):
        """Every PM manages at least one allocator."""
        assert {a.pm_kind for a in Allocator} == set(PMKind)


class TestAllocatorOwnership:
    def test_allocator_sets_are_disjoint(self):
        sizes = [len(_family(pm)) for pm in PMKind]
        assert sum(sizes) == len(Allocator)

    def test_allocator_sets_cover_enum(self):
        covered = set().union(*(_family(pm) for pm in PMKind))
        assert covered == set(Allocator)

    def test_owns_allocator(self):
        assert Allocator.HIP_UVA in _family(PMKind.HIP)
        assert Allocator.CUDA not in _family(PMKind.HIP)
        for pm in set(PMKind) - {PMKind.HOST}:
            assert default_allocator_for(pm, 0) in _family(pm)


class TestInterop:
    @pytest.mark.parametrize("producer", list(PMKind))
    @pytest.mark.parametrize("consumer", list(PMKind))
    def test_all_pairs_interoperate(self, producer, consumer):
        """Paper S2: data can pass between any two codes in any PMs."""
        src = _buffer(producer, 0, [1.0, 2.0, 3.0])
        target = _where(consumer, 1)
        view = accessible_view(src, consumer, target)
        out = _buffer(consumer, 1, [0.0] * 3)
        launch(
            lambda x, y: np.add(x, x, out=y),
            reads=[view.buffer], writes=[out], device_id=target,
        )
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])
        view.release()


class TestTargets:
    def test_openmp_may_target_host(self):
        """OpenMP offload falls back to host execution on a host view."""
        src = _buffer(PMKind.OPENMP, 0, [1.0])
        view = accessible_view(src, PMKind.OPENMP, HOST_DEVICE_ID)
        launch(lambda x: None, reads=[view.buffer], device_id=HOST_DEVICE_ID)

    def test_sycl_and_kokkos_may_target_host(self):
        """The Section 5 extensions both have host backends."""
        shared = Buffer.allocate(2, np.float64, Allocator.SYCL_SHARED,
                                 device_id=0)
        pinned = Buffer.allocate(2, np.float64, Allocator.SYCL_HOST)
        kokkos = accessible_view(_buffer(PMKind.KOKKOS, 3, [1.0]),
                                 PMKind.KOKKOS, HOST_DEVICE_ID)
        launch(lambda *xs: None, reads=[shared, pinned, kokkos.buffer],
               device_id=HOST_DEVICE_ID)

    def test_sycl_and_kokkos_target_devices(self):
        launch(lambda x: None, reads=[_buffer(PMKind.SYCL, 0, [1.0])],
               device_id=0)
        launch(lambda x: None, reads=[_buffer(PMKind.KOKKOS, 3, [1.0])],
               device_id=3)

    def test_device_pm_validates_device_exists(self):
        with pytest.raises(LocationError):
            launch(lambda: None, device_id=99)
