"""Stencil workload: numerics vs dense reference, cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.array import StencilConfig, StencilWorkload
from repro.errors import ArrayError
from repro.mpi import run_spmd

CONFIG = StencilConfig(length=96, steps=8, block_rows=8)


def dense_reference(config: StencilConfig) -> np.ndarray:
    """The same Jacobi sweep on one dense array (zero Dirichlet edges)."""
    x = np.arange(config.length, dtype=np.float64)
    u = np.sin(2.0 * np.pi * x / config.length)
    for _ in range(config.steps):
        p = np.zeros(config.length + 2)
        p[1:-1] = u
        u = p[1:-1] + config.alpha * (p[:-2] - 2.0 * p[1:-1] + p[2:])
    return u


def run_workload(size, config, adaptive=False):
    def main(comm):
        workload = StencilWorkload(comm, config, adaptive=adaptive)
        workload.run()
        field = workload.u[:]
        summary = workload.summary()
        workload.close()
        return field, summary

    return run_spmd(size, main)


class TestNumerics:
    @pytest.mark.parametrize("partitioner", ["block", "cyclic"])
    def test_matches_dense_reference_bit_for_bit(self, partitioner):
        config = StencilConfig(
            length=96, steps=8, block_rows=8, partitioner=partitioner
        )
        expected = dense_reference(config)
        for field, _summary in run_workload(3, config):
            np.testing.assert_array_equal(field, expected)

    def test_adaptive_physics_identical_under_injected_skew(self):
        config = StencilConfig(
            length=96, steps=8, block_rows=8,
            hotspot=(0.0, 0.25), hotspot_cost=8.0,
        )
        expected = dense_reference(config)
        for field, summary in run_workload(3, config, adaptive=True):
            np.testing.assert_array_equal(field, expected)
            assert summary["repartitions"] >= 1

    def test_single_rank_matches_dense(self):
        expected = dense_reference(CONFIG)
        [(field, summary)] = run_workload(1, CONFIG)
        np.testing.assert_array_equal(field, expected)
        assert summary["halo_bytes"] == 0  # all ghost fills were local


class TestAccounting:
    def test_uniform_cost_is_rows_over_rate(self):
        [(_, summary)] = run_workload(1, CONFIG)
        expected = CONFIG.length * CONFIG.steps / CONFIG.compute_rate
        assert summary["busy_time"] == pytest.approx(expected)

    def test_hotspot_charges_extra_from_its_first_step(self):
        config = StencilConfig(
            length=96, steps=4, block_rows=8,
            hotspot=(0.0, 0.5), hotspot_cost=2.0, hotspot_from=3,
        )
        [(_, summary)] = run_workload(1, config)
        base = config.length * config.steps / config.compute_rate
        hot_rows = 48
        extra = hot_rows * 2.0 * 2 / config.compute_rate  # steps 3 and 4
        assert summary["busy_time"] == pytest.approx(base + extra)

    def test_table_carries_owned_rows(self):
        def main(comm):
            workload = StencilWorkload(comm, CONFIG)
            workload.step(1)
            table = workload.table()
            rows = table.n_rows
            index = table.column("index").as_numpy_host()
            owned = sorted(
                g for _b, s, e, _v in workload.u.local_spans()
                for g in range(s, e)
            )
            workload.close()
            return rows, list(index), owned

        for rows, index, owned in run_spmd(3, main):
            assert rows == len(owned)
            assert index == owned


def per_block_cost(config, start, stop, step):
    """The per-block charge, spelled out as the workload has always
    computed it."""
    rows = stop - start
    cost = rows / config.compute_rate
    if config.hotspot_cost > 0.0 and step >= config.hotspot_from:
        hlo, hhi = config.hotspot_rows
        hot = max(0, min(stop, hhi) - max(start, hlo))
        cost += hot * config.hotspot_cost / config.compute_rate
    return cost


class TestCompiledSweep:
    def test_charges_bit_identical_across_hotspot_and_repartition(self):
        config = StencilConfig(
            length=96, steps=8, block_rows=8,
            hotspot=(0.0, 0.25), hotspot_cost=8.0, hotspot_from=3,
        )

        def main(comm):
            workload = StencilWorkload(comm, config, adaptive=True)
            mismatches, expected_busy = [], 0.0
            for k in range(1, config.steps + 1):
                partition = workload.u.partition
                got = workload.step(k)
                want = {}
                for b in partition.blocks_of(comm.rank):
                    want[b] = per_block_cost(
                        config, *partition.block_span(b), k
                    )
                    expected_busy += want[b]
                if got != want:
                    mismatches.append((k, got, want))
            busy = workload.busy_time
            repartitions = workload.coordinator.repartitions
            workload.close()
            return mismatches, busy == expected_busy, repartitions

        for mismatches, busy_equal, repartitions in run_spmd(3, main):
            assert mismatches == []
            assert busy_equal
            assert repartitions >= 1


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ArrayError):
            StencilConfig(alpha=0.6)
        with pytest.raises(ArrayError):
            StencilConfig(steps=0)
        with pytest.raises(ArrayError):
            StencilConfig(compute_rate=0.0)
        with pytest.raises(ArrayError):
            StencilConfig(hotspot=(0.5, 0.2))
        with pytest.raises(ArrayError):
            StencilConfig(hotspot_cost=-1.0)

    def test_closed_workload_rejects_stepping(self):
        def main(comm):
            workload = StencilWorkload(comm, CONFIG)
            workload.close()
            with pytest.raises(ArrayError):
                workload.step(1)
            return True

        assert run_spmd(1, main) == [True]
