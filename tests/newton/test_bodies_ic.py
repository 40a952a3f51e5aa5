"""Tests for the body container and initial conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.newton.bodies import Bodies
from repro.newton.ic import PlummerComponent, plummer_galaxy, uniform_random


class TestBodies:
    def test_construction_and_shapes(self):
        b = uniform_random(10)
        assert b.n == len(b) == 10
        assert b.positions.shape == (10, 3)
        assert b.velocities.shape == (10, 3)

    def test_length_mismatch_rejected(self):
        z = np.zeros(3)
        with pytest.raises(SolverError):
            Bodies(z, z, z, z, z, z, np.zeros(4))

    def test_ids_default_to_range(self):
        b = uniform_random(5)
        np.testing.assert_array_equal(b.ids, np.arange(5))

    def test_select_by_mask(self):
        b = uniform_random(10)
        sel = b.select(b.x > 0)
        assert (sel.x > 0).all()
        assert sel.n + b.select(b.x <= 0).n == 10

    def test_select_copies(self):
        b = uniform_random(4)
        sel = b.select(np.array([True] * 4))
        sel.x[0] = 1e9
        assert b.x[0] != 1e9

    def test_concatenate_preserves_everything(self):
        a, b = uniform_random(3, seed=1), uniform_random(4, seed=2)
        c = Bodies.concatenate([a, b])
        assert c.n == 7
        assert c.total_mass == pytest.approx(a.total_mass + b.total_mass)

    def test_concatenate_skips_empty_and_none(self):
        a = uniform_random(3)
        c = Bodies.concatenate([None, a, Bodies.empty(0)])
        assert c.n == 3

    def test_concatenate_nothing(self):
        assert Bodies.concatenate([]).n == 0

class TestUniformRandom:
    def test_deterministic_by_seed(self):
        a, b = uniform_random(50, seed=7), uniform_random(50, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, uniform_random(50, seed=8).x)

    def test_positions_in_box(self):
        b = uniform_random(200, box=2.5)
        for arr in (b.x, b.y, b.z):
            assert (np.abs(arr) <= 2.5).all()

    def test_masses_in_range(self):
        b = uniform_random(200, mass_range=(1.0, 3.0))
        assert (b.mass >= 1.0).all() and (b.mass <= 3.0).all()

    def test_central_mass_placed_at_origin(self):
        """Figure 1's 'massive body at the origin'."""
        b = uniform_random(100, central_mass=1e4)
        assert b.x[0] == b.y[0] == b.z[0] == 0.0
        assert b.vx[0] == 0.0
        assert b.mass[0] == 1e4
        assert b.mass[1:].max() < 1e4

    def test_validation(self):
        with pytest.raises(SolverError):
            uniform_random(0)
        with pytest.raises(SolverError):
            uniform_random(10, box=-1)
        with pytest.raises(SolverError):
            uniform_random(10, mass_range=(2.0, 1.0))


class TestPlummerGalaxy:
    def test_basic_properties(self):
        g = plummer_galaxy(n=500, seed=1)
        assert g.n == 500
        assert g.total_mass == pytest.approx(1.0)

    def test_centrally_concentrated(self):
        """Half-mass radius of a Plummer sphere is ~1.3 a."""
        g = plummer_galaxy(n=4000, seed=2)
        r = np.sqrt(g.x**2 + g.y**2 + g.z**2)
        assert np.median(r) < 2.0  # a=1: median radius ~1.3

    def test_velocities_bound(self):
        """Sampled speeds never exceed the local escape speed."""
        g = plummer_galaxy(n=2000, seed=3)
        r2 = g.x**2 + g.y**2 + g.z**2
        v2 = g.vx**2 + g.vy**2 + g.vz**2
        v_esc2 = 2.0 * 1.0 / np.sqrt(r2 + 1.0)
        assert (v2 <= v_esc2 + 1e-12).all()

    def test_multi_component(self):
        comps = [
            PlummerComponent(n=100, total_mass=1.0, scale_radius=0.5),
            PlummerComponent(n=300, total_mass=5.0, scale_radius=2.0),
        ]
        g = plummer_galaxy(components=comps, seed=4)
        assert g.n == 400
        assert g.total_mass == pytest.approx(6.0)
        np.testing.assert_array_equal(g.ids, np.arange(400))

    def test_argument_validation(self):
        with pytest.raises(SolverError):
            plummer_galaxy()
        with pytest.raises(SolverError):
            plummer_galaxy(components=[PlummerComponent(n=1)], n=5)
        with pytest.raises(SolverError):
            PlummerComponent(n=0)

    def test_near_virial_equilibrium(self):
        """For an equilibrium Plummer model, 2K ~ -W (virial theorem)."""
        from repro.newton.forces import kinetic_energy, potential_energy

        g = plummer_galaxy(n=3000, seed=5)
        k = kinetic_energy(g.velocities, g.mass)
        w = potential_energy(g.positions, g.mass, softening=1e-4)
        assert 2 * k / abs(w) == pytest.approx(1.0, abs=0.2)

    def test_equilibrium_is_dynamically_stable(self):
        """Evolving the model keeps the virial ratio in band: the
        initializer produces a genuine equilibrium, not just moments."""
        from repro.newton.forces import (
            accelerations,
            kinetic_energy,
            potential_energy,
        )
        from repro.newton.integrator import leapfrog_step

        g = plummer_galaxy(n=600, seed=6)
        fn = lambda pos: accelerations(pos, pos, g.mass, softening=0.05)
        acc = None
        for _ in range(30):
            acc = leapfrog_step(g, 2e-3, fn, acc=acc)
        ratio = 2 * kinetic_energy(g.velocities, g.mass) / abs(
            potential_energy(g.positions, g.mass, softening=0.05)
        )
        assert ratio == pytest.approx(1.0, abs=0.3)
