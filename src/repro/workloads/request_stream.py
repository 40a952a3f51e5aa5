"""A bursty multi-tenant request-stream workload.

The zoo's service-shaped entry: several *tenants* (one service
pipeline each) publish request batches whose sizes follow independent
seeded Markov on/off chains — calm steps ship ``base_rows``, burst
steps ship ``burst_rows``, with per-tenant transition probabilities.
Tenants may join late (``join_step``) and leave early (``fin_step``),
exercising elastic membership, and the wildly skewed per-tenant byte
rates are exactly what per-tenant admission control
(``ControlConfig.quota`` on) exists to arbitrate.

The schedule is *replicated*: every producer rank derives the
identical per-tenant row sequence from ``random.Random(f"{seed}:{name}")``,
so membership events and payload sizes are bit-identical across ranks
and runs — the property the trace recorder's golden gate pins down.

It runs as a service producer: :func:`request_stream_producer` under
:meth:`RequestStreamConfig.service_config`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.hamr.runtime import current_clock
from repro.svtk.table import TableData

__all__ = ["TenantSpec", "RequestStreamConfig", "request_stream_producer"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape and service lifetime."""

    name: str
    weight: float = 1.0            # admission-control share
    base_rows: int = 256           # calm-state batch size
    burst_rows: int = 4096         # burst-state batch size
    p_burst: float = 0.25          # calm -> burst transition probability
    p_calm: float = 0.5            # burst -> calm transition probability
    join_step: int = 0             # first step this tenant publishes
    fin_step: int | None = None    # first step it no longer publishes

    def __post_init__(self):
        if not self.name:
            raise ConfigError("tenants need a non-empty name")
        if self.base_rows < 1 or self.burst_rows < 1:
            raise ConfigError(
                f"tenant {self.name!r} batch sizes must be >= 1"
            )
        if not (0.0 <= self.p_burst <= 1.0 and 0.0 <= self.p_calm <= 1.0):
            raise ConfigError(
                f"tenant {self.name!r} probabilities must be in [0, 1]"
            )
        if self.join_step < 0:
            raise ConfigError(f"tenant {self.name!r} join_step must be >= 0")
        if self.fin_step is not None and self.fin_step <= self.join_step:
            raise ConfigError(
                f"tenant {self.name!r} must fin after joining "
                f"({self.fin_step} <= {self.join_step})"
            )

    def active(self, step: int) -> bool:
        if step < self.join_step:
            return False
        return self.fin_step is None or step < self.fin_step


def _default_tenants() -> tuple:
    return (
        TenantSpec("alpha", weight=2.0, base_rows=256, burst_rows=1024,
                   p_burst=0.15, p_calm=0.6),
        TenantSpec("beta", base_rows=128, burst_rows=4096,
                   p_burst=0.35, p_calm=0.4),
        TenantSpec("gamma", base_rows=512, burst_rows=2048,
                   p_burst=0.25, p_calm=0.5, join_step=2, fin_step=6),
    )


@dataclass(frozen=True)
class RequestStreamConfig:
    """The full request-stream scenario (identical on every rank)."""

    tenants: tuple = field(default_factory=_default_tenants)
    steps: int = 8
    dt: float = 1.0                # simulation seconds per step
    seed: int = 11
    compute_time: float = 0.05     # charged producer seconds per step
    # Service admission-control knobs (forwarded to ServiceConfig).
    budget: int = 16
    min_credits: int = 1
    skew: float = 1.3
    cooldown: int = 1
    interval: int = 2

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1: {self.steps}")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")

    def schedule(self) -> dict:
        """Per-tenant rows per step (None while inactive).

        Pure function of the config: each tenant's Markov chain runs
        on ``random.Random(f"{seed}:{name}")``, drawing one transition
        per active step.
        """
        out = {}
        for tenant in self.tenants:
            rng = random.Random(f"{self.seed}:{tenant.name}")
            state = "calm"
            rows: list = []
            for step in range(self.steps):
                if not tenant.active(step):
                    rows.append(None)
                    continue
                rows.append(
                    tenant.burst_rows if state == "burst"
                    else tenant.base_rows
                )
                flip = rng.random()
                if state == "calm" and flip < tenant.p_burst:
                    state = "burst"
                elif state == "burst" and flip < tenant.p_calm:
                    state = "calm"
            out[tenant.name] = rows
        return out

    def service_config(self, transport=None):
        """The matching :class:`~repro.service.plan.ServiceConfig`.

        One non-collective pipeline per tenant (mesh name = tenant
        name) carrying ``transport`` (default wire settings when
        None), plus this config's admission-control knobs.
        """
        from repro.service.plan import PipelineSpec, ServiceConfig
        from repro.transport.config import TransportConfig

        wire = transport if transport is not None else TransportConfig()
        return ServiceConfig(
            budget=self.budget,
            min_credits=self.min_credits,
            skew=self.skew,
            cooldown=self.cooldown,
            interval=self.interval,
            pipelines=tuple(
                PipelineSpec(
                    name=t.name, mesh=t.name, weight=t.weight,
                    shard_size=1, transport=wire,
                )
                for t in self.tenants
            ),
        )


def request_stream_producer(config: RequestStreamConfig):
    """A ``producer_main`` publishing the seeded tenant schedule.

    Each step charges ``compute_time``, publishes one batch per active
    tenant (request ids plus a replicated per-batch load value), and
    fins each tenant's pipeline right after its last publish step.
    """

    def producer_main(sim_comm, bridge):
        from repro.sensei.data_adaptor import TableDataAdaptor

        schedule = config.schedule()
        loads = {
            t.name: random.Random(f"{config.seed}:{t.name}:load")
            for t in config.tenants
        }
        clk = current_clock()
        published = {t.name: 0 for t in config.tenants}
        for step in range(config.steps):
            clk.advance(config.compute_time)
            adaptor = TableDataAdaptor(comm=sim_comm)
            any_rows = False
            for tenant in config.tenants:
                rows = schedule[tenant.name][step]
                if rows is None:
                    continue
                table = TableData(tenant.name)
                table.add_host_column(
                    "req",
                    np.arange(rows, dtype=np.int64) + step * rows,
                )
                table.add_host_column(
                    "load",
                    np.full(rows, loads[tenant.name].random()),
                )
                adaptor.set_table(tenant.name, table)
                published[tenant.name] += 1
                any_rows = True
            if any_rows:
                adaptor.set_step(step, step * config.dt)
                bridge.execute(adaptor)
            for tenant in config.tenants:
                if tenant.fin_step == step + 1:
                    bridge.finish_pipeline(tenant.name)
        return published

    return producer_main
