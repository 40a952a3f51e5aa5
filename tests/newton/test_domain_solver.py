"""Tests for domain decomposition, repartitioning, solver and adaptor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.hamr.allocator import Allocator
from repro.mpi.comm import run_spmd
from repro.mpi.partition import slab_bounds
from repro.newton.adaptor import NewtonDataAdaptor
from repro.newton.bodies import Bodies
from repro.newton.domain import SlabDomain
from repro.newton.ic import uniform_random
from repro.newton.solver import NewtonSolver, SolverConfig


class TestSlabDomain:
    def test_initial_selection_partitions_bodies(self):
        def fn(comm):
            dom = SlabDomain.create(-1.0, 1.0, comm)
            g = uniform_random(100, seed=0)
            local = dom.select_initial(g)
            return local.n

        out = run_spmd(4, fn)
        assert sum(out) == 100
        assert all(n > 0 for n in out)

    def test_repartition_conserves_bodies_and_mass(self):
        def fn(comm):
            dom = SlabDomain.create(-1.0, 1.0, comm)
            g = uniform_random(60, seed=1)
            local = dom.select_initial(g)
            # Scramble positions so bodies escape their slabs.
            rng = np.random.default_rng(comm.rank + 10)
            local.x[:] = rng.uniform(-1, 1, local.n)
            n_before = comm.allreduce(local.n)
            m_before = comm.allreduce(float(local.mass.sum()))
            local = dom.repartition(local, comm)
            lo, hi = slab_bounds(dom.lo, dom.hi, dom.size, dom.rank)
            inside = ((local.x >= lo) & (local.x < hi)) if comm.rank < comm.size - 1 \
                else (local.x >= lo)
            n_after = comm.allreduce(local.n)
            m_after = comm.allreduce(float(local.mass.sum()))
            return n_before, m_before, n_after, m_after, bool(inside.all())

        for n_before, m_before, n_after, m_after, all_inside in run_spmd(3, fn):
            assert n_before == n_after == 60
            assert m_before == pytest.approx(m_after)
            assert all_inside

    def test_repartition_size_one_is_identity(self):
        def fn(comm):
            dom = SlabDomain.create(-1.0, 1.0, comm)
            b = uniform_random(10)
            return dom.repartition(b, comm) is b

        assert run_spmd(1, fn) == [True]

    def test_repartition_preserves_ids(self):
        def fn(comm):
            dom = SlabDomain.create(-1.0, 1.0, comm)
            g = uniform_random(40, seed=2)
            local = dom.select_initial(g)
            local = dom.repartition(local, comm)
            return sorted(local.ids.tolist())

        out = run_spmd(2, fn)
        assert sorted(out[0] + out[1]) == list(range(40))

    def test_invalid_domain(self):
        with pytest.raises(SolverError):
            SlabDomain(1.0, 1.0, 0, 2)
        with pytest.raises(SolverError):
            SlabDomain(0.0, 1.0, 2, 2)


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    def test_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(n_bodies=0)
        with pytest.raises(SolverError):
            SolverConfig(dt=0)
        with pytest.raises(SolverError):
            SolverConfig(ic="magic")
        with pytest.raises(SolverError):
            SolverConfig(repartition_every=-1)
        # Rejected at construction, not inside the first force
        # evaluation on a rank thread.
        with pytest.raises(SolverError, match="softening"):
            SolverConfig(softening=0.0)
        with pytest.raises(SolverError, match="tile"):
            SolverConfig(tile=0)


class TestNewtonSolver:
    def test_serial_energy_conservation(self):
        s = NewtonSolver(
            SolverConfig(n_bodies=80, dt=1e-3, seed=1,
                         mass_range=(0.01, 0.03), softening=0.05)
        )
        e0 = s.global_energy()
        s.run(50)
        e1 = s.global_energy()
        assert abs((e1 - e0) / e0) < 1e-3
        assert s.step_count == 50
        assert s.time == pytest.approx(0.05)

    def test_parallel_matches_serial(self):
        """Domain decomposition must not change the physics."""
        cfg = SolverConfig(n_bodies=64, dt=1e-3, seed=3,
                           mass_range=(0.01, 0.03), softening=0.05)
        serial = NewtonSolver(cfg)
        serial.run(10)
        ref = {int(i): (x, v) for i, x, v in
               zip(serial.bodies.ids, serial.bodies.x, serial.bodies.vx)}

        def fn(comm):
            s = NewtonSolver(cfg, comm)
            s.run(10)
            return {int(i): (x, v) for i, x, v in
                    zip(s.bodies.ids, s.bodies.x, s.bodies.vx)}

        merged = {}
        for part in run_spmd(4, fn):
            merged.update(part)
        assert set(merged) == set(ref)
        # Summation order differs between decompositions, and close
        # encounters amplify round-off; the trajectories must still
        # agree far beyond what any physical difference would allow.
        for i in ref:
            assert merged[i][0] == pytest.approx(ref[i][0], abs=1e-6)
            assert merged[i][1] == pytest.approx(ref[i][1], abs=1e-4)

    def test_parallel_energy_and_count(self):
        def fn(comm):
            s = NewtonSolver(
                SolverConfig(n_bodies=100, dt=1e-3, seed=4, repartition_every=3,
                             mass_range=(0.01, 0.03), softening=0.05),
                comm,
            )
            e0 = s.global_energy()
            s.run(12)
            n = comm.allreduce(s.n_local, op="sum")
            return n, abs((s.global_energy() - e0) / e0)

        for n, drift in run_spmd(4, fn):
            assert n == 100
            assert drift < 1e-3

    def test_device_assignment_round_robin(self):
        def fn(comm):
            s = NewtonSolver(SolverConfig(n_bodies=8), comm)
            return s.device_id

        assert run_spmd(4, fn) == [0, 1, 2, 3]

    def test_explicit_device(self):
        s = NewtonSolver(SolverConfig(n_bodies=8, device_id=2))
        assert s.device_id == 2

    def test_solver_time_charged_to_device(self):
        from repro.hw.node import get_node

        s = NewtonSolver(SolverConfig(n_bodies=50, device_id=1))
        s.run(3)
        assert len(s.step_times) == 3
        assert all(t > 0 for t in s.step_times)
        assert get_node().devices[1].timeline.available_at > 0

    def test_run_requires_bridge_and_adaptor_together(self):
        s = NewtonSolver(SolverConfig(n_bodies=8))
        with pytest.raises(SolverError):
            s.run(1, bridge=object())

    def test_plummer_ic(self):
        s = NewtonSolver(SolverConfig(n_bodies=100, ic="plummer", box=20.0))
        assert s.n_local == 100


class TestNewtonDataAdaptor:
    def test_publishes_zero_copy_device_tagged_columns(self):
        s = NewtonSolver(SolverConfig(n_bodies=30, device_id=2))
        da = NewtonDataAdaptor(s)
        table = da.get_mesh("bodies")
        assert table.n_rows == 30
        col = table["x"]
        assert col.allocator is Allocator.OPENMP
        assert col.device_id == 2
        # Zero copy: mutating solver state is visible through the column.
        s.bodies.x[0] = 123.0
        assert col.get_data()[0] == 123.0

    def test_update_tracks_steps(self):
        s = NewtonSolver(SolverConfig(n_bodies=10))
        da = NewtonDataAdaptor(s)
        s.run(2)
        da.update(s)
        assert da.time_step == 2
        assert da.time == pytest.approx(2e-3)

    def test_unknown_mesh(self):
        da = NewtonDataAdaptor(NewtonSolver(SolverConfig(n_bodies=4)))
        with pytest.raises(KeyError):
            da.get_mesh("grid")
