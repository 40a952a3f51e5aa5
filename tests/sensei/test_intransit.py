"""Tests for in transit (M-to-N) execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.errors import ExecutionError
from repro.mpi.comm import run_spmd
from repro.newton.adaptor import NewtonDataAdaptor
from repro.newton.solver import NewtonSolver, SolverConfig
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.intransit import InTransitLayout, run_in_transit
from repro.svtk.table import TableData


def served_by(lay: InTransitLayout, endpoint: int) -> list[int]:
    """The producers ``endpoint`` serves, read through ``endpoint_of``."""
    return [p for p in range(lay.m) if lay.endpoint_of(p) == endpoint]


class TestLayout:
    def test_roles(self):
        lay = InTransitLayout(m=4, n=2)
        assert [lay.is_producer(r) for r in range(6)] == [True] * 4 + [False] * 2

    def test_block_mapping(self):
        lay = InTransitLayout(m=4, n=2)
        assert [lay.endpoint_of(p) for p in range(4)] == [4, 4, 5, 5]
        assert served_by(lay, 4) == [0, 1]
        assert served_by(lay, 5) == [2, 3]

    def test_uneven_mapping_covers_all_producers(self):
        lay = InTransitLayout(m=5, n=2)
        assert {lay.endpoint_of(p) for p in range(5)} == {5, 6}

    def test_m_to_one(self):
        lay = InTransitLayout(m=3, n=1)
        assert served_by(lay, 3) == [0, 1, 2]

    def test_invalid_layouts(self):
        with pytest.raises(ExecutionError):
            InTransitLayout(m=0, n=1)
        with pytest.raises(ExecutionError):
            InTransitLayout(m=2, n=3)

    def test_role_validation(self):
        lay = InTransitLayout(m=2, n=1)
        with pytest.raises(ExecutionError):
            lay.endpoint_of(2)


class TestLayoutEdgeCases:
    @pytest.mark.parametrize("m,n", [(5, 2), (7, 3), (9, 4), (10, 3)])
    def test_uneven_split_is_fair(self, m, n):
        """When N does not divide M, loads differ by at most one."""
        lay = InTransitLayout(m=m, n=n)
        counts = [len(served_by(lay, e)) for e in range(m, m + n)]
        assert sum(counts) == m
        assert set(counts) <= {m // n, -(-m // n)}

    @pytest.mark.parametrize("partitioner", ["block", "cyclic", "weighted"])
    @pytest.mark.parametrize("m,n", [(4, 2), (5, 2), (8, 3)])
    def test_endpoint_of_producers_of_round_trip(self, partitioner, m, n):
        """Every producer maps into the endpoint ranks, and every
        endpoint serves at least one producer."""
        lay = InTransitLayout(m=m, n=n, partitioner=partitioner)
        assert {lay.endpoint_of(p) for p in range(m)} == set(range(m, m + n))

    def test_weighted_layout_balances_heavy_producer(self):
        lay = InTransitLayout(
            m=4, n=2, partitioner="weighted", weights=(10.0, 1.0, 1.0, 1.0)
        )
        heavy_ep = lay.endpoint_of(0)
        assert all(lay.endpoint_of(p) != heavy_ep for p in (1, 2, 3))

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ExecutionError):
            InTransitLayout(m=4, n=2, partitioner="hilbert")

    def test_bad_weights_rejected(self):
        with pytest.raises(ExecutionError):
            InTransitLayout(m=4, n=2, partitioner="weighted", weights=(1.0,))

    def test_layouts_with_equal_fields_compare_equal(self):
        assert InTransitLayout(m=4, n=2) == InTransitLayout(m=4, n=2)


class TestServeDrain:
    def test_serve_drains_after_unequal_step_counts(self):
        """The fin handshake ends serve() cleanly; no shutdown tag."""
        layout = InTransitLayout(m=2, n=1)

        def producer_main(sim_comm, bridge):
            t = TableData("bodies")
            t.add_host_column("x", np.full(4, float(bridge._world.rank)))
            t.add_host_column("mass", np.full(4, 0.02))
            da = TableDataAdaptor({"bodies": t})
            for step in range(2):
                da.set_step(step, 0.0)
                bridge.execute(da)
            return bridge._world.rank

        producers, endpoints = run_in_transit(
            layout, producer_main, _binning_factory()
        )
        (runner,) = endpoints
        assert runner.steps_processed == 2
        # Every receiver saw the graceful fin, not a timeout.
        assert all(r.finished for r in runner.receivers.values())

    def test_zero_step_run_drains_cleanly(self):
        layout = InTransitLayout(m=2, n=1)

        def producer_main(sim_comm, bridge):
            return 0  # never calls execute: finalize sends a bare fin

        producers, endpoints = run_in_transit(
            layout, producer_main, _binning_factory()
        )
        (runner,) = endpoints
        assert runner.steps_processed == 0
        assert all(r.finished for r in runner.receivers.values())

    def test_finalize_idempotent_and_execute_after_finalize_rejected(self):
        layout = InTransitLayout(m=1, n=1)

        def producer_main(sim_comm, bridge):
            t = TableData("bodies")
            t.add_host_column("x", np.zeros(3))
            t.add_host_column("mass", np.full(3, 0.02))
            da = TableDataAdaptor({"bodies": t})
            da.set_step(0, 0.0)
            bridge.execute(da)
            bridge.finalize()
            bridge.finalize()  # idempotent
            try:
                bridge.execute(da)
            except ExecutionError:
                return "rejected"
            return "accepted"

        producers, _ = run_in_transit(layout, producer_main, _binning_factory())
        assert producers == ["rejected"]


class TestCommSplit:
    def test_split_partitions_by_color(self):
        def fn(comm):
            color = 0 if comm.rank < 3 else 1
            sub = comm.split(color)
            return (color, sub.rank, sub.size, sub.allreduce(1))

        out = run_spmd(5, fn)
        assert [o for o in out if o[0] == 0] == [(0, 0, 3, 3), (0, 1, 3, 3), (0, 2, 3, 3)]
        assert [o for o in out if o[0] == 1] == [(1, 0, 2, 2), (1, 1, 2, 2)]

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.split(0, key=-comm.rank)  # reverse order
            return sub.rank

        assert run_spmd(3, fn) == [2, 1, 0]

    def test_singleton_group(self):
        def fn(comm):
            sub = comm.split(comm.rank)  # every rank its own group
            return (sub.size, sub.allreduce(5))

        assert run_spmd(3, fn) == [(1, 5)] * 3

    def test_traffic_in_one_group_invisible_to_other(self):
        def fn(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            return sub.allreduce(comm.rank)

        out = run_spmd(4, fn)
        assert out == [2, 4, 2, 4]  # 0+2 and 1+3


def _newton_producer(n_bodies=120, steps=3):
    def producer_main(sim_comm, bridge):
        solver = NewtonSolver(
            SolverConfig(n_bodies=n_bodies, dt=1e-3, softening=0.05,
                         seed=4, mass_range=(0.01, 0.03)),
            sim_comm,
        )
        adaptor = NewtonDataAdaptor(solver)
        solver.run(steps, bridge=bridge, adaptor=adaptor)
        return solver.n_local

    return producer_main


def _binning_factory():
    def factory():
        a = BinningAnalysis(
            "bodies",
            [AxisSpec("x", 8, -1, 1)],
            [BinRequest(ReductionOp.SUM, "mass")],
            keep_results=True,
        )
        a.set_device_id(-1)
        return [a]

    return factory


class TestInTransitRun:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (3, 1)])
    def test_full_pipeline(self, m, n):
        factory = _binning_factory()
        layout = InTransitLayout(m=m, n=n)
        producers, endpoints = run_in_transit(
            layout, _newton_producer(n_bodies=120, steps=3), factory
        )
        assert sum(producers) == 120  # all bodies produced
        # Every endpoint processed every step, and the binned totals,
        # reduced over the endpoint communicator, are global.
        for runner in endpoints:
            assert runner.steps_processed == 3
            analysis = runner.analyses[0]
            assert len(analysis.results) == 3
            for mesh in analysis.results:
                assert mesh.cell_array_as_grid("count").sum() == 120

    def test_endpoint_assembles_its_producers_rows(self):
        layout = InTransitLayout(m=4, n=2)
        producers, endpoints = run_in_transit(
            layout, _newton_producer(n_bodies=100, steps=1), _binning_factory()
        )
        # Each endpoint's local table holds only its producers' bodies;
        # locally they bin fewer than 100 rows, globally exactly 100
        # (already checked above).  Confirm work was split:
        assert len(endpoints) == 2
        assert all(r.producers for r in endpoints)

    def test_producer_ship_cost_recorded(self):
        layout = InTransitLayout(m=2, n=1)

        costs = []

        def producer_main(sim_comm, bridge):
            solver = NewtonSolver(
                SolverConfig(n_bodies=80, dt=1e-3, softening=0.05,
                             seed=1, mass_range=(0.01, 0.03)),
                sim_comm,
            )
            adaptor = NewtonDataAdaptor(solver)
            solver.run(2, bridge=bridge, adaptor=adaptor)
            costs.append(bridge.total_apparent_time)
            return 0

        run_in_transit(layout, producer_main, _binning_factory())
        assert all(c > 0 for c in costs)

    def test_inconsistent_columns_rejected(self):
        """Producers shipping different column sets is a hard error."""
        from repro.errors import MPIError
        from repro.sensei.data_adaptor import TableDataAdaptor
        from repro.svtk.table import TableData

        layout = InTransitLayout(m=2, n=1)

        def producer_main(sim_comm, bridge):
            t = TableData("bodies")
            t.add_host_column("x", np.zeros(3))
            if bridge._world.rank == 1:
                t.add_host_column("extra", np.zeros(3))
            da = TableDataAdaptor({"bodies": t})
            da.set_step(1, 0.0)
            bridge.execute(da)
            return 0

        with pytest.raises(MPIError, match="inconsistent column sets"):
            run_in_transit(layout, producer_main, _binning_factory())

    def test_bridge_misuse(self):
        from repro.service import PipelineSpec, ServiceBridge, ServiceConfig

        config = ServiceConfig(pipelines=(PipelineSpec(name="bodies"),))
        bridge = ServiceBridge(config, m=1, n=1)
        with pytest.raises(ExecutionError):
            bridge.execute(object())  # not initialized
        with pytest.raises(ExecutionError):
            bridge.finish_pipeline("bodies")  # not initialized

        def endpoint_as_producer(comm):
            if comm.rank == 1:  # an endpoint rank is not a producer
                with pytest.raises(ExecutionError):
                    ServiceBridge(config, m=1, n=1).initialize(comm, comm)
            return True

        assert run_spmd(2, endpoint_as_producer) == [True, True]
