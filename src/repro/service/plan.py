"""Service-plane configuration: pipelines, shards, and routing.

A *pipeline* is one tenant of the in-transit service: a named stream
of tables with its own analysis factory and transport configuration.
A :class:`ServiceConfig` declares the pipeline set plus the
admission-control knobs; :class:`PipelineRegistry` binds each
pipeline name to the analysis factory its endpoints instantiate; a
:class:`ShardMap` holds the live (mutable, replicated) assignment of
pipelines to endpoint shards that the
:class:`~repro.control.quota.ShardGovernor` rebalances at step
boundaries.

The transport of each tenant is its :class:`PipelineSpec`'s own
:class:`~repro.transport.config.TransportConfig`; its producers are
routed over its shard in contiguous blocks (:func:`route_producers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigError
from repro.mpi.partition import block_owners
from repro.transport.config import TransportConfig
from repro.transport.flows import pipeline_tags

__all__ = [
    "PipelineSpec",
    "ServiceConfig",
    "PipelineRegistry",
    "ShardMap",
    "route_producers",
]

@dataclass(frozen=True)
class PipelineSpec:
    """One tenant: a named stream with its own transport and analyses.

    ``mesh`` is the data-adaptor mesh the pipeline ships (defaults to
    the pipeline name); ``weight`` its share in the quota governor's
    weighted-fair split; ``shard_size`` how many endpoints its traffic
    spreads over; ``ranks`` an optional subset of producer ranks that
    feed it (None: every producer).

    ``collective=True`` initializes the pipeline's analyses with the
    full endpoint sub-communicator so reductions span every endpoint —
    this pins the shard to *all* endpoints (no migration) because a
    collective analysis must run on every rank of its communicator in
    lockstep.  The default gives each endpoint an isolated singleton
    communicator, the posture that lets tenants shard and migrate
    freely.
    """

    name: str
    mesh: str = ""
    weight: float = 1.0
    shard_size: int = 1
    ranks: tuple[int, ...] | None = None
    collective: bool = False
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self):
        if not self.name or ":" in self.name:
            raise ConfigError(
                f"pipeline name must be non-empty and colon-free: "
                f"{self.name!r}"
            )
        if not self.mesh:
            object.__setattr__(self, "mesh", self.name)
        if self.weight <= 0:
            raise ConfigError(
                f"pipeline {self.name!r}: weight must be > 0: {self.weight}"
            )
        if self.shard_size < 1:
            raise ConfigError(
                f"pipeline {self.name!r}: shard_size must be >= 1: "
                f"{self.shard_size}"
            )
        if self.ranks is not None:
            if not self.ranks:
                raise ConfigError(
                    f"pipeline {self.name!r}: ranks must be non-empty"
                )
            if any(r < 0 for r in self.ranks):
                raise ConfigError(
                    f"pipeline {self.name!r}: negative producer rank"
                )
            object.__setattr__(self, "ranks", tuple(sorted(set(self.ranks))))

    def producers(self, m: int) -> tuple[int, ...]:
        """The producer ranks feeding this pipeline in an M-producer run."""
        if self.ranks is None:
            return tuple(range(m))
        bad = [r for r in self.ranks if r >= m]
        if bad:
            raise ConfigError(
                f"pipeline {self.name!r}: producer ranks {bad} outside "
                f"[0, {m})"
            )
        return self.ranks


@dataclass(frozen=True)
class ServiceConfig:
    """The service plane's tenants plus its admission knobs.

    ``budget`` is each endpoint's credit budget the quota governor
    partitions across its tenants; ``min_credits`` the floor parked on
    an idle tenant; ``skew``/``cooldown`` drive shard rebalancing
    (``skew <= 1`` would disable it, so it must be > 1; set the shard
    governor off via ``ControlConfig(quota=...)`` instead); ``interval``
    is the coordination cadence in steps.
    """

    pipelines: tuple[PipelineSpec, ...]
    budget: int = 32
    min_credits: int = 1
    skew: float = 1.5
    cooldown: int = 2
    interval: int = 4

    def __post_init__(self):
        if not self.pipelines:
            raise ConfigError("ServiceConfig declares no pipelines")
        names = [p.name for p in self.pipelines]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate pipeline name(s): {dupes}")
        collective = [p.name for p in self.pipelines if p.collective]
        if len(collective) > 1:
            raise ConfigError(
                f"at most one collective pipeline is supported (their "
                f"analyses run lockstep over the shared endpoint "
                f"communicator): {collective}"
            )
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1 credit: {self.budget}")
        if self.min_credits < 1 or self.min_credits > self.budget:
            raise ConfigError(
                f"min_credits must be in [1, budget]: {self.min_credits}"
            )
        if self.skew <= 1.0:
            raise ConfigError(f"skew threshold must be > 1: {self.skew}")
        if self.cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0: {self.cooldown}")
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1: {self.interval}")
        # Pipeline order is part of the wire protocol (tag allocation),
        # so pin a canonical order regardless of declaration order.
        object.__setattr__(
            self, "pipelines",
            tuple(sorted(self.pipelines, key=lambda p: p.name)),
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.pipelines)

    def spec(self, name: str) -> PipelineSpec:
        return self.pipelines[self.index(name)]

    def index(self, name: str) -> int:
        """Position in canonical order — the tag-allocation index."""
        if name not in self.names:
            raise ConfigError(f"unknown pipeline {name!r}; have {self.names}")
        return self.names.index(name)

    def tags(self, name: str) -> tuple[int, int]:
        return pipeline_tags(self.index(name))


class PipelineRegistry:
    """Binds pipeline names to analysis factories.

    The :class:`ServiceConfig` declares *what* flows; the registry
    supplies the *code* each endpoint instantiates for it.  A factory is
    any zero-argument callable returning a sequence of analysis
    adaptors; pipelines without a factory get an empty analysis set
    (pure transport).
    """

    def __init__(self, factories: Mapping[str, Callable] | None = None):
        self._factories: dict[str, Callable] = {}
        for name in sorted(factories or {}):
            self.register(name, factories[name])

    def register(self, name: str, factory: Callable) -> Callable:
        if not callable(factory):
            raise ConfigError(
                f"analysis factory for {name!r} is not callable"
            )
        self._factories[str(name)] = factory
        return factory

    def factory_for(self, name: str) -> Callable:
        return self._factories.get(name, tuple)

    def build(self, name: str) -> list:
        return list(self.factory_for(name)())


def route_producers(
    spec: PipelineSpec,
    shard: Sequence[int],
    producers: Sequence[int],
) -> dict[int, tuple[int, ...]]:
    """Assign a pipeline's producers over its shard's endpoints.

    Pure function of ``(shard, producers)`` so every rank — producer
    or endpoint — derives the identical mapping from the replicated
    shard state; every pipeline routes the same way, so ``spec`` only
    names whose producers these are.  Returns ``{endpoint_index:
    (producer ranks...)}`` covering exactly the shard: contiguous
    blocks of producers, in order
    (:func:`~repro.mpi.partition.block_owners`).  A pipeline with fewer
    producers than endpoints routes over the shard's lowest-indexed
    endpoints; the rest receive an empty member tuple.
    """
    routed: dict[int, list[int]] = {e: [] for e in shard}
    if producers:
        active = tuple(shard)[:min(len(shard), len(producers))]
        for p, slot in zip(
            producers, block_owners(len(producers), len(active))
        ):
            routed[active[slot]].append(p)
    return {e: tuple(sorted(ps)) for e, ps in sorted(routed.items())}


class ShardMap:
    """The live pipeline -> endpoint-shard assignment (replicated).

    Every rank holds its own copy and mutates it only by replaying
    the moves one rank decided for the admission round, so the
    copies never diverge.  Endpoints are tracked by *index*
    (0-based within the endpoint group), not world rank.
    """

    def __init__(self, shards: Mapping[str, Sequence[int]]):
        self._shards: dict[str, tuple[int, ...]] = {
            name: tuple(shards[name]) for name in sorted(shards)
        }

    @classmethod
    def initial(cls, config: ServiceConfig, endpoints: int) -> "ShardMap":
        """Deterministic first assignment: heaviest pipelines first,
        each taking its ``shard_size`` least-loaded endpoints."""
        if endpoints < 1:
            raise ConfigError(f"need >= 1 endpoint: {endpoints}")
        load = [0.0] * endpoints
        shards: dict[str, tuple[int, ...]] = {}
        order = sorted(
            config.pipelines, key=lambda p: (-p.weight, p.name)
        )
        for spec in order:
            if spec.collective:
                # Collective analyses span every endpoint; see
                # PipelineSpec.  Weight still lands on all of them.
                shard = tuple(range(endpoints))
            else:
                size = min(spec.shard_size, endpoints)
                ranked = sorted(range(endpoints), key=lambda e: (load[e], e))
                shard = tuple(sorted(ranked[:size]))
            for e in shard:
                load[e] += spec.weight / len(shard)
            shards[spec.name] = shard
        return cls(shards)

    def shard(self, name: str) -> tuple[int, ...]:
        try:
            return self._shards[name]
        except KeyError:
            raise ConfigError(
                f"unknown pipeline {name!r}; have {sorted(self._shards)}"
            ) from None

    def set_shard(self, name: str, shard: Sequence[int]) -> None:
        if name not in self._shards:
            raise ConfigError(f"unknown pipeline {name!r}")
        if not shard:
            raise ConfigError(f"pipeline {name!r}: empty shard")
        self._shards[name] = tuple(sorted(set(int(e) for e in shard)))

    def as_dict(self) -> dict[str, tuple[int, ...]]:
        return dict(self._shards)
