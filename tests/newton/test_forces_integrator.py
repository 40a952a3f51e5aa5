"""Tests for gravity and the symplectic integrator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.newton.bodies import Bodies
from repro.newton.forces import (
    ROWS,
    accelerations,
    kinetic_energy,
    pair_flops,
    potential_energy,
    total_energy,
)
from repro.newton.ic import uniform_random
from repro.newton.integrator import leapfrog_step
from tests.support import traced_peak


class TestAccelerations:
    def test_two_body_inverse_square(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        acc = accelerations(pos, pos, np.array([1.0, 1.0]), softening=1e-9)
        # Body 0 pulled toward +x with |a| ~ 1/r^2 = 1.
        assert acc[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert acc[1, 0] == pytest.approx(-1.0, rel=1e-6)
        assert np.abs(acc[:, 1:]).max() < 1e-12

    def test_self_interaction_is_zero(self):
        pos = np.array([[0.5, 0.5, 0.5]])
        acc = accelerations(pos, pos, np.array([10.0]), softening=1e-3)
        np.testing.assert_allclose(acc, 0.0)

    def test_tiling_invariance(self):
        b = uniform_random(100, seed=1)
        pos = b.positions
        a_big = accelerations(pos, pos, b.mass, tile=1000)
        a_small = accelerations(pos, pos, b.mass, tile=7)
        np.testing.assert_allclose(a_small, a_big, rtol=1e-12)

    def test_momentum_conservation(self):
        """Sum of m*a vanishes for internal forces (Newton's third law)."""
        b = uniform_random(80, seed=3)
        acc = accelerations(b.positions, b.positions, b.mass)
        np.testing.assert_allclose(
            (b.mass[:, None] * acc).sum(axis=0), 0.0, atol=1e-10
        )

    def test_mass_linearity(self):
        b = uniform_random(30, seed=4)
        a1 = accelerations(b.positions, b.positions, b.mass)
        a2 = accelerations(b.positions, b.positions, 2.0 * b.mass)
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-12)

    def test_validation(self):
        pos = np.zeros((2, 3))
        with pytest.raises(SolverError):
            accelerations(pos, pos, np.ones(2), softening=0.0)
        with pytest.raises(SolverError):
            accelerations(pos, pos, np.ones(2), tile=0)
        with pytest.raises(SolverError):
            accelerations(np.zeros((2, 2)), pos, np.ones(2))
        with pytest.raises(SolverError):
            accelerations(pos, pos, np.ones(3))

    def test_pair_flops(self):
        assert pair_flops(10, 100) == 20.0 * 1000


def reference_accelerations(
    targets_pos: np.ndarray,
    sources_pos: np.ndarray,
    sources_mass: np.ndarray,
    softening: float = 1e-3,
    tile: int = 2048,
) -> np.ndarray:
    """The AoS einsum kernel the SoA one replaced, kept as the oracle."""
    if softening <= 0:
        raise SolverError(f"softening must be positive: {softening}")
    if tile < 1:
        raise SolverError(f"tile must be >= 1: {tile}")
    targets_pos = np.asarray(targets_pos, dtype=np.float64)
    sources_pos = np.asarray(sources_pos, dtype=np.float64)
    sources_mass = np.asarray(sources_mass, dtype=np.float64)
    if targets_pos.ndim != 2 or targets_pos.shape[1] != 3:
        raise SolverError(f"targets_pos must be (n, 3), got {targets_pos.shape}")
    if sources_pos.shape != (sources_mass.size, 3):
        raise SolverError("sources_pos/sources_mass shape mismatch")

    n_t = targets_pos.shape[0]
    acc = np.zeros((n_t, 3))
    eps2 = softening * softening
    for start in range(0, sources_mass.size, tile):
        sp = sources_pos[start : start + tile]
        sm = sources_mass[start : start + tile]
        # (n_t, n_tile, 3) displacement target -> source.
        d = sp[None, :, :] - targets_pos[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        inv_r3 = r2 ** -1.5
        # Bodies at (numerically) zero distance are the body itself:
        # the softened kernel keeps this finite and the contribution of
        # a true self-pair is exactly zero because d == 0.
        w = sm[None, :] * inv_r3
        acc += np.einsum("ij,ijk->ik", w, d)
    return acc


@pytest.mark.parametrize(
    "n_t, tile",
    [
        (128, 2048), (171, 2048), (256, 2048),  # the in situ matrix's shapes
        (171, 100),  # ragged last tile: 512 = 5 x 100 + 12
        (171, 1),
        (1, 2048),  # a single target
    ],
)
def test_matches_reference_kernel(n_t, tile):
    """The SoA kernel agrees with the einsum oracle, 512 sources."""
    b = uniform_random(512, seed=12)
    t, s, m = b.positions[:n_t].copy(), b.positions, b.mass
    np.testing.assert_allclose(
        accelerations(t, s, m, softening=1e-2, tile=tile),
        reference_accelerations(t, s, m, softening=1e-2, tile=tile),
        rtol=1e-12,
    )


def _parent_pair_tiles(targets_pos, sources_pos, softening, tile):
    """Per source tile: (start, d, softened r2, scratch), n_t x tile views of
    one coordinate-major block allocated once; d[k] is target -> source."""
    n_s = sources_pos.shape[0]
    block = np.empty((5, targets_pos.shape[0], min(tile, n_s)))
    for start in range(0, n_s, tile):
        s = sources_pos[start : start + tile].T
        view = block[:, :, : s.shape[1]]
        d, r2, scratch = view[:3], view[3], view[4]
        np.subtract(s[:, None, :], targets_pos.T[:, :, None], out=d)
        np.einsum("kij,kij->ij", d, d, out=r2)
        r2 += softening * softening
        yield start, d, r2, scratch


def parent_accelerations(
    targets_pos: np.ndarray,
    sources_pos: np.ndarray,
    sources_mass: np.ndarray,
    softening: float = 1e-3,
    tile: int = 2048,
) -> np.ndarray:
    """The source-tiled SoA kernel the row-blocked one replaced, kept
    verbatim: row blocking must not change a single bit of its output."""
    if softening <= 0:
        raise SolverError(f"softening must be positive: {softening}")
    if tile < 1:
        raise SolverError(f"tile must be >= 1: {tile}")
    targets_pos = np.asarray(targets_pos, dtype=np.float64)
    sources_pos = np.asarray(sources_pos, dtype=np.float64)
    sources_mass = np.asarray(sources_mass, dtype=np.float64)
    if targets_pos.ndim != 2 or targets_pos.shape[1] != 3:
        raise SolverError(f"targets_pos must be (n, 3), got {targets_pos.shape}")
    if sources_pos.shape != (sources_mass.size, 3):
        raise SolverError("sources_pos/sources_mass shape mismatch")

    acc = np.zeros((targets_pos.shape[0], 3))
    for start, d, r2, w in _parent_pair_tiles(targets_pos, sources_pos, softening, tile):
        # w = m / (r2 sqrt(r2)): no fractional power.
        np.multiply(r2, np.sqrt(r2, out=w), out=w)
        np.divide(sources_mass[None, start : start + tile], w, out=w)
        for k in range(3):
            acc[:, k] += np.einsum("ij,ij->i", w, d[k])
    return acc


@pytest.mark.parametrize(
    "n_t, tile",
    [
        (128, 2048), (171, 2048), (256, 2048), (512, 2048),  # 512 sources
        (ROWS + 1, 2048),  # ragged last row block
        (1, 2048),  # a single target, a single short row block
        (171, 100),  # ragged last tile: 512 = 5 x 100 + 12
        (171, 1),
    ],
)
def test_bit_identical_to_parent_kernel(n_t, tile):
    """Blocking over target rows leaves every summation order as it was."""
    b = uniform_random(512, seed=12)
    t, s, m = b.positions[:n_t].copy(), b.positions, b.mass
    assert np.array_equal(
        accelerations(t, s, m, softening=1e-2, tile=tile),
        parent_accelerations(t, s, m, softening=1e-2, tile=tile),
    )


def test_scratch_stays_bounded():
    """One call at 256 targets x 512 sources allocates at most 1.5 MiB at
    peak; an n_t-sized scratch block (the parent's) takes 5.1 MiB."""
    b = uniform_random(512, seed=12)
    t, s, m = b.positions[:256].copy(), b.positions, b.mass
    accelerations(t, s, m)  # warm numpy's lazy state outside the window
    _, peak = traced_peak(lambda: accelerations(t, s, m))
    assert peak <= 1.5 * 2**20, peak


class TestEnergies:
    def test_two_body_potential(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        w = potential_energy(pos, np.array([3.0, 4.0]), softening=1e-9)
        assert w == pytest.approx(-3.0 * 4.0 / 2.0, rel=1e-6)

    def test_potential_tiling_invariance(self):
        b = uniform_random(64, seed=5)
        w1 = potential_energy(b.positions, b.mass, tile=1000)
        w2 = potential_energy(b.positions, b.mass, tile=5)
        assert w2 == pytest.approx(w1, rel=1e-12)

    def test_validation(self):
        pos = np.zeros((4, 3))
        with pytest.raises(SolverError):
            potential_energy(pos, np.ones(4), tile=0)
        with pytest.raises(SolverError):
            potential_energy(pos, np.ones(4), softening=-1.0)
        with pytest.raises(SolverError):
            potential_energy(np.zeros((4, 2)), np.ones(4))
        with pytest.raises(SolverError):
            potential_energy(pos, np.ones(3))

    def test_kinetic(self):
        vel = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert kinetic_energy(vel, np.array([2.0, 1.0])) == pytest.approx(
            0.5 * (2 * 1 + 1 * 4)
        )

    def test_total(self):
        b = uniform_random(20, seed=6)
        assert total_energy(b.positions, b.velocities, b.mass) == pytest.approx(
            kinetic_energy(b.velocities, b.mass)
            + potential_energy(b.positions, b.mass)
        )


def _accel_closure(mass, softening=1e-2):
    return lambda pos: accelerations(pos, pos, mass, softening=softening)


class TestLeapfrog:
    def test_energy_conservation_over_many_steps(self):
        # Masses ~1/n keep close encounters resolvable at this dt.
        b = uniform_random(60, seed=7, vel_scale=0.2, mass_range=(0.01, 0.03))
        fn = _accel_closure(b.mass, softening=0.05)
        e0 = total_energy(b.positions, b.velocities, b.mass, 0.05)
        acc = None
        for _ in range(200):
            acc = leapfrog_step(b, 1e-3, fn, acc=acc)
        e1 = total_energy(b.positions, b.velocities, b.mass, 0.05)
        assert abs((e1 - e0) / e0) < 1e-3

    def test_time_reversibility(self):
        """Integrate forward then backward: return to start to round-off."""
        b = uniform_random(30, seed=8)
        x0, v0 = b.positions.copy(), b.velocities.copy()
        fn = _accel_closure(b.mass)
        acc = None
        for _ in range(50):
            acc = leapfrog_step(b, 1e-3, fn, acc=acc)
        acc = None
        for _ in range(50):
            acc = leapfrog_step(b, -1e-3, fn, acc=acc)
        np.testing.assert_allclose(b.positions, x0, atol=1e-9)
        np.testing.assert_allclose(b.velocities, v0, atol=1e-9)

    def test_second_order_convergence(self):
        """Halving dt must reduce the error ~4x (2nd-order scheme)."""
        def run(dt, steps):
            b = uniform_random(12, seed=9, vel_scale=0.3)
            fn = _accel_closure(b.mass, softening=0.1)
            acc = None
            for _ in range(steps):
                acc = leapfrog_step(b, dt, fn, acc=acc)
            return b.positions

        ref = run(1e-4, 800)   # high-resolution reference
        err_coarse = np.abs(run(8e-4, 100) - ref).max()
        err_fine = np.abs(run(4e-4, 200) - ref).max()
        assert err_coarse / err_fine > 3.0

    def test_momentum_conserved_exactly(self):
        b = uniform_random(40, seed=10)
        p0 = (b.mass[:, None] * b.velocities).sum(axis=0)
        fn = _accel_closure(b.mass)
        acc = None
        for _ in range(20):
            acc = leapfrog_step(b, 1e-3, fn, acc=acc)
        p1 = (b.mass[:, None] * b.velocities).sum(axis=0)
        np.testing.assert_allclose(p1, p0, atol=1e-10)

    def test_zero_dt_rejected(self):
        b = uniform_random(4)
        with pytest.raises(SolverError):
            leapfrog_step(b, 0.0, _accel_closure(b.mass))

    def test_bad_acc_shape_rejected(self):
        b = uniform_random(4)
        with pytest.raises(SolverError):
            leapfrog_step(b, 1e-3, _accel_closure(b.mass), acc=np.zeros((2, 3)))

    def test_returned_acc_matches_new_positions(self):
        b = uniform_random(10, seed=11)
        fn = _accel_closure(b.mass)
        acc = leapfrog_step(b, 1e-3, fn)
        np.testing.assert_allclose(acc, fn(b.positions), rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 40))
def test_leapfrog_reversibility_property(seed, n):
    """Property: KDK is time reversible for any small system."""
    b = uniform_random(n, seed=seed)
    x0 = b.positions.copy()
    fn = _accel_closure(b.mass, softening=0.05)
    acc = None
    for _ in range(10):
        acc = leapfrog_step(b, 1e-3, fn, acc=acc)
    acc = None
    for _ in range(10):
        acc = leapfrog_step(b, -1e-3, fn, acc=acc)
    np.testing.assert_allclose(b.positions, x0, atol=1e-8)
