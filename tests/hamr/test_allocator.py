"""Tests for the svtkAllocator enumeration and its capability queries."""

from __future__ import annotations

import pytest

from repro.errors import InvalidAllocatorError
from repro.hamr.allocator import (
    HOST_DEVICE_ID,
    Allocator,
    PMKind,
    default_allocator_for,
)

HOST_ALLOCS = [
    Allocator.MALLOC,
    Allocator.NEW,
    Allocator.CUDA_HOST,
    Allocator.HIP_HOST,
    Allocator.SYCL_HOST,
]
DEVICE_ALLOCS = [
    Allocator.CUDA,
    Allocator.CUDA_ASYNC,
    Allocator.CUDA_UVA,
    Allocator.HIP,
    Allocator.HIP_ASYNC,
    Allocator.HIP_UVA,
    Allocator.OPENMP,
    Allocator.SYCL,
    Allocator.SYCL_SHARED,
    Allocator.KOKKOS,
]


class TestResidency:
    @pytest.mark.parametrize("alloc", HOST_ALLOCS)
    def test_host_resident(self, alloc):
        assert alloc.is_host_resident
        assert not alloc.is_device_resident

    @pytest.mark.parametrize("alloc", DEVICE_ALLOCS)
    def test_device_resident(self, alloc):
        assert alloc.is_device_resident
        assert not alloc.is_host_resident

    def test_partition_is_total(self):
        assert set(HOST_ALLOCS) | set(DEVICE_ALLOCS) == set(Allocator)


class TestPMOwnership:
    def test_host_allocators(self):
        assert Allocator.MALLOC.pm_kind is PMKind.HOST
        assert Allocator.NEW.pm_kind is PMKind.HOST

    def test_cuda_family(self):
        for a in (Allocator.CUDA, Allocator.CUDA_ASYNC, Allocator.CUDA_UVA, Allocator.CUDA_HOST):
            assert a.pm_kind is PMKind.CUDA

    def test_hip_family(self):
        for a in (Allocator.HIP, Allocator.HIP_ASYNC, Allocator.HIP_UVA, Allocator.HIP_HOST):
            assert a.pm_kind is PMKind.HIP

    def test_openmp(self):
        assert Allocator.OPENMP.pm_kind is PMKind.OPENMP

    def test_sycl_family(self):
        for a in (Allocator.SYCL, Allocator.SYCL_SHARED, Allocator.SYCL_HOST):
            assert a.pm_kind is PMKind.SYCL

    def test_kokkos(self):
        assert Allocator.KOKKOS.pm_kind is PMKind.KOKKOS


class TestVariantFlags:
    def test_async_variants(self):
        assert Allocator.CUDA_ASYNC.is_async
        assert Allocator.HIP_ASYNC.is_async
        assert not Allocator.CUDA.is_async

    def test_uva_variants(self):
        assert Allocator.CUDA_UVA.is_uva
        assert Allocator.HIP_UVA.is_uva
        assert Allocator.SYCL_SHARED.is_uva
        assert not Allocator.OPENMP.is_uva

    def test_pinned_variants(self):
        assert Allocator.CUDA_HOST.is_pinned_host
        assert Allocator.HIP_HOST.is_pinned_host
        assert Allocator.SYCL_HOST.is_pinned_host
        assert not Allocator.MALLOC.is_pinned_host


class TestCapabilityContract:
    """Each flag is resolved once per member; for every member it must
    equal membership in the set the allocator docs name."""

    DOCUMENTED = {
        "is_host_resident": set(HOST_ALLOCS),
        "is_device_resident": set(DEVICE_ALLOCS),
        "is_async": {Allocator.CUDA_ASYNC, Allocator.HIP_ASYNC},
        "is_uva": {Allocator.CUDA_UVA, Allocator.HIP_UVA, Allocator.SYCL_SHARED},
        "is_pinned_host": {
            Allocator.CUDA_HOST, Allocator.HIP_HOST, Allocator.SYCL_HOST,
        },
    }

    @pytest.mark.parametrize("flag", sorted(DOCUMENTED))
    @pytest.mark.parametrize("alloc", list(Allocator), ids=lambda a: a.name)
    def test_flag_is_membership(self, alloc, flag):
        assert getattr(alloc, flag) is (alloc in self.DOCUMENTED[flag])


class TestValidateDevice:
    def test_host_allocator_rejects_device(self):
        with pytest.raises(InvalidAllocatorError):
            Allocator.MALLOC.validate_device(0)

    def test_device_allocator_rejects_host(self):
        with pytest.raises(InvalidAllocatorError):
            Allocator.CUDA.validate_device(HOST_DEVICE_ID)

    def test_valid_combinations_pass(self):
        Allocator.MALLOC.validate_device(HOST_DEVICE_ID)
        Allocator.CUDA.validate_device(2)
        Allocator.OPENMP.validate_device(0)


class TestDefaultAllocatorFor:
    def test_host_destination(self):
        for pm in PMKind:
            assert default_allocator_for(pm, HOST_DEVICE_ID) is Allocator.MALLOC

    def test_device_destinations(self):
        assert default_allocator_for(PMKind.CUDA, 0) is Allocator.CUDA
        assert default_allocator_for(PMKind.HIP, 1) is Allocator.HIP
        assert default_allocator_for(PMKind.OPENMP, 2) is Allocator.OPENMP
        assert default_allocator_for(PMKind.SYCL, 0) is Allocator.SYCL
        assert default_allocator_for(PMKind.KOKKOS, 3) is Allocator.KOKKOS

    def test_host_pm_cannot_target_device(self):
        with pytest.raises(InvalidAllocatorError):
            default_allocator_for(PMKind.HOST, 0)
