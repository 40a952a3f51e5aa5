"""The irregular particle workload: migrating hotspot, adaptive grid.

Covers the zoo's "irregular" entry standalone (no service plane):
config validation, the migrating-hotspot cost model, ownership of the
published tables, per-rank device spreading, adaptive repartitioning
under a skewed load, and bit-identical reruns — the property the trace
recorder's golden gate builds on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plan import ControlConfig, ControlPlane
from repro.errors import ArrayError
from repro.hw.node import num_devices
from repro.mpi import run_spmd
from repro.workloads import ParticleConfig, ParticleWorkload
from tests.support import rerun

RANKS = 2

#: Strong, fast hotspot over a coarse grid: the hot band crosses
#: several ownership blocks within a few steps.
MIGRATING = ParticleConfig(
    n_particles=512, length=64, steps=6, seed=3, block_rows=8,
    compute_rate=2.0e5, hotspot_strength=8.0, hotspot_width=0.2,
    hotspot_speed=0.15, hotspot_start=0.1,
)


def _run_standalone(config, adaptive=False, control=None):
    """All-rank run returning (summary, block costs per step, ids)."""

    def rank_main(comm):
        plane = None
        if control is not None:
            plane = ControlPlane(control, comm=comm)
        workload = ParticleWorkload(
            comm, config, plane=plane, adaptive=adaptive, interval=2,
        )
        costs = [workload.step(k) for k in range(1, config.steps + 1)]
        table = workload.table()
        summary = workload.summary()
        workload.close()
        ids = np.asarray(table.column("id").as_numpy_host())
        return summary, costs, ids

    return run_spmd(RANKS, rank_main)


class TestParticleConfig:
    def test_defaults_valid(self):
        cfg = ParticleConfig()
        assert cfg.n_particles == 2048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_particles": 0},
            {"steps": 0},
            {"compute_rate": 0.0},
            {"hotspot_width": 1.5},
            {"hotspot_width": -0.1},
            {"hotspot_strength": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ArrayError):
            ParticleConfig(**kwargs)

    def test_hotspot_center_migrates_and_wraps(self):
        cfg = ParticleConfig(hotspot_start=0.9, hotspot_speed=0.3)
        assert cfg.hotspot_center(0) == pytest.approx(0.9)
        assert cfg.hotspot_center(1) == pytest.approx(0.2)
        assert 0.0 <= cfg.hotspot_center(17) < 1.0


class TestParticleWorkload:
    def test_density_conserves_particles(self):
        results = _run_standalone(MIGRATING)
        for summary, _costs, _ids in results:
            assert summary["steps"] == MIGRATING.steps
            assert summary["density_sum"] == pytest.approx(
                MIGRATING.n_particles
            )

    def test_tables_partition_the_particles(self):
        """Each particle lands in exactly one rank's published table."""
        results = _run_standalone(MIGRATING)
        all_ids = np.sort(np.concatenate([ids for _s, _c, ids in results]))
        np.testing.assert_array_equal(
            all_ids, np.arange(MIGRATING.n_particles, dtype=np.int64)
        )

    def test_hotspot_migration_moves_the_cost_peak(self):
        """The most expensive ownership block follows the hotspot."""
        results = _run_standalone(MIGRATING)
        # Merge both ranks' charges: one global block->cost map per step.
        merged = []
        for step in range(MIGRATING.steps):
            step_costs: dict[int, float] = {}
            for _summary, costs, _ids in results:
                step_costs.update(costs[step])
            merged.append(step_costs)
        peaks = [max(c, key=c.get) for c in merged]
        assert len(set(peaks)) > 1, f"cost peak never moved: {peaks}"

    def test_per_rank_device_spreading(self):
        """Rank r's density shards land on device (base + r) mod n."""

        def rank_main(comm):
            workload = ParticleWorkload(comm, MIGRATING)
            device = workload.density.device_id
            workload.close()
            return device

        devices = run_spmd(RANKS, rank_main)
        n = max(1, num_devices())
        assert devices == [(0 + r) % n for r in range(RANKS)]

    def test_host_placement_opt_out(self):
        cfg = ParticleConfig(
            n_particles=64, length=16, steps=1, block_rows=4, device_id=None,
        )

        def rank_main(comm):
            workload = ParticleWorkload(comm, cfg)
            device = workload.density.device_id
            workload.close()
            return device

        assert run_spmd(RANKS, rank_main) == [None] * RANKS

    def test_step_after_close_rejected(self):
        def rank_main(comm):
            workload = ParticleWorkload(comm, MIGRATING)
            workload.close()
            workload.close()  # idempotent
            with pytest.raises(ArrayError):
                workload.step(1)
            return True

        assert all(run_spmd(RANKS, rank_main))


class TestParticleAdaptivity:
    CONTROL = ControlConfig.from_xml_attrs(
        {"codec": "off", "repartition": "on", "interval": "2"},
    )

    def test_skewed_load_triggers_repartition(self):
        results = _run_standalone(
            MIGRATING, adaptive=True, control=self.CONTROL
        )
        owners = {s["owners"] for s, _c, _i in results}
        assert len(owners) == 1  # every rank agrees on the final layout
        assert all(s["repartitions"] >= 1 for s, _c, _i in results)

    def test_adaptive_run_is_deterministic(self):
        def scenario():
            results = _run_standalone(
                MIGRATING, adaptive=True, control=self.CONTROL
            )
            return [
                (summary, [sorted(c.items()) for c in costs], ids.tolist())
                for summary, costs, ids in results
            ]

        first, second = rerun(scenario, name="particle-determinism")
        assert first == second
