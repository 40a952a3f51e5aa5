"""The bursty multi-tenant request stream: schedule, membership, runs.

Covers the zoo's service-shaped entry: tenant/config validation, the
replicated Markov schedule (pure function of the config), elastic
membership windows (late join, early fin), the derived service
topology, and the standalone ``run`` path — every published step of
every tenant arrives, deterministically across reruns.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.service import run_service
from repro.workloads import (
    RequestStreamConfig,
    TenantSpec,
    request_stream_producer,
)
from tests.support import rerun


class TestTenantSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "base_rows": 0},
            {"name": "t", "burst_rows": 0},
            {"name": "t", "p_burst": 1.5},
            {"name": "t", "p_calm": -0.1},
            {"name": "t", "join_step": -1},
            {"name": "t", "join_step": 3, "fin_step": 3},
        ],
    )
    def test_bad_tenant_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TenantSpec(**kwargs)

    def test_membership_window(self):
        tenant = TenantSpec("gamma", join_step=2, fin_step=6)
        assert [tenant.active(s) for s in range(8)] == [
            False, False, True, True, True, True, False, False,
        ]

    def test_lifetime_tenant_never_fins(self):
        tenant = TenantSpec("alpha")
        assert tenant.active(0) and tenant.active(10_000)


class TestRequestStreamConfig:
    def test_bad_steps_rejected(self):
        with pytest.raises(ConfigError):
            RequestStreamConfig(steps=0)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigError):
            RequestStreamConfig(
                tenants=(TenantSpec("a"), TenantSpec("a")),
            )

    def test_schedule_is_pure(self):
        cfg = RequestStreamConfig(seed=5)
        assert cfg.schedule() == cfg.schedule()
        assert cfg.schedule() == RequestStreamConfig(seed=5).schedule()

    def test_schedule_honors_membership(self):
        cfg = RequestStreamConfig()  # gamma joins at 2, fins at 6
        rows = cfg.schedule()["gamma"]
        gamma = next(t for t in cfg.tenants if t.name == "gamma")
        for step, r in enumerate(rows):
            if gamma.active(step):
                assert r in (gamma.base_rows, gamma.burst_rows)
            else:
                assert r is None

    def test_schedule_rows_are_calm_or_burst(self):
        cfg = RequestStreamConfig(seed=9, steps=12)
        schedule = cfg.schedule()
        for tenant in cfg.tenants:
            sizes = {r for r in schedule[tenant.name] if r is not None}
            assert sizes <= {tenant.base_rows, tenant.burst_rows}
            assert sizes  # every tenant publishes at least once

    def test_seed_changes_the_traffic(self):
        a = RequestStreamConfig(seed=0, steps=16).schedule()
        b = RequestStreamConfig(seed=1, steps=16).schedule()
        assert a != b

    def test_bursts_actually_happen(self):
        """Over enough steps each default tenant visits both states."""
        cfg = RequestStreamConfig(seed=11, steps=64, tenants=(
            TenantSpec("alpha", p_burst=0.3, p_calm=0.5),
            TenantSpec("beta", base_rows=128, burst_rows=4096,
                       p_burst=0.35, p_calm=0.4),
        ))
        schedule = cfg.schedule()
        for tenant in cfg.tenants:
            sizes = {r for r in schedule[tenant.name] if r is not None}
            assert sizes == {tenant.base_rows, tenant.burst_rows}

    def test_service_config_shape(self):
        cfg = RequestStreamConfig()
        service = cfg.service_config()
        assert service.budget == cfg.budget
        assert service.interval == cfg.interval
        specs = {spec.name: spec for spec in service.pipelines}
        assert set(specs) == {t.name for t in cfg.tenants}
        for tenant in cfg.tenants:
            spec = specs[tenant.name]
            assert spec.mesh == tenant.name
            assert spec.weight == tenant.weight
            assert not spec.collective


class TestRequestStreamRun:
    CONFIG = RequestStreamConfig(steps=6, seed=11)

    def _run(self):
        cfg = self.CONFIG
        producers, endpoints = run_service(
            cfg.service_config(), request_stream_producer(cfg), m=2, n=2,
        )
        steps = {}
        for tenant in self.CONFIG.tenants:
            steps[tenant.name] = sum(
                ep.pipeline_steps[tenant.name] for ep in endpoints
            )
        return producers, steps

    def test_every_published_step_arrives(self):
        schedule = self.CONFIG.schedule()
        expected = {
            name: sum(r is not None for r in rows)
            for name, rows in schedule.items()
        }
        producers, steps = self._run()
        assert steps == expected
        # Every producer rank walked the identical replicated schedule.
        assert all(p == expected for p in producers)

    def test_run_is_deterministic(self):
        first, second = rerun(
            lambda: self._run(), name="request-stream-determinism"
        )
        assert first == second
