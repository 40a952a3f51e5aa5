"""Tests for the service plan: specs, config, shards, routing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.service.plan import (
    PipelineRegistry,
    PipelineSpec,
    ServiceConfig,
    ShardMap,
    route_producers,
)
from repro.transport.config import TransportConfig
from repro.transport.flows import pipeline_tags


class TestPipelineSpec:
    def test_defaults(self):
        spec = PipelineSpec(name="hot")
        assert spec.mesh == "hot"
        assert spec.weight == 1.0
        assert spec.shard_size == 1
        assert not spec.collective
        assert isinstance(spec.transport, TransportConfig)

    def test_mesh_defaults_to_name_but_can_differ(self):
        assert PipelineSpec(name="hot", mesh="bodies").mesh == "bodies"

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineSpec(name="")
        with pytest.raises(ConfigError):
            PipelineSpec(name="a:b")
        with pytest.raises(ConfigError):
            PipelineSpec(name="x", weight=0.0)
        with pytest.raises(ConfigError):
            PipelineSpec(name="x", shard_size=0)
        with pytest.raises(ConfigError):
            PipelineSpec(name="x", ranks=())
        with pytest.raises(ConfigError):
            PipelineSpec(name="x", ranks=(-1,))

    def test_ranks_sorted_and_deduped(self):
        spec = PipelineSpec(name="x", ranks=(3, 1, 3))
        assert spec.ranks == (1, 3)

    def test_producers_defaults_to_all(self):
        assert PipelineSpec(name="x").producers(3) == (0, 1, 2)
        assert PipelineSpec(name="x", ranks=(0, 2)).producers(3) == (0, 2)
        with pytest.raises(ConfigError):
            PipelineSpec(name="x", ranks=(5,)).producers(3)


class TestServiceConfig:
    def test_canonical_order_and_tags(self):
        cfg = ServiceConfig(pipelines=(
            PipelineSpec(name="zeta"), PipelineSpec(name="alpha"),
        ))
        assert cfg.names == ("alpha", "zeta")
        assert cfg.index("alpha") == 0
        # Index 0 lands on the legacy wire tags.
        assert cfg.tags("alpha") == (100, 101)
        assert cfg.tags("zeta") == (104, 105)
        assert pipeline_tags(2) == (108, 109)
        with pytest.raises(ConfigError):
            pipeline_tags(-1)

    def test_validation(self):
        one = PipelineSpec(name="a")
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=())
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one, PipelineSpec(name="a")))
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(
                PipelineSpec(name="a", collective=True),
                PipelineSpec(name="b", collective=True),
            ))
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one,), budget=0)
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one,), min_credits=99)
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one,), skew=1.0)
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one,), cooldown=-1)
        with pytest.raises(ConfigError):
            ServiceConfig(pipelines=(one,), interval=0)

    def test_spec_lookup(self):
        cfg = ServiceConfig(pipelines=(PipelineSpec(name="a"),))
        assert cfg.spec("a").name == "a"
        with pytest.raises(ConfigError):
            cfg.spec("nope")
        with pytest.raises(ConfigError):
            cfg.index("nope")


class TestShardMap:
    def _cfg(self, *specs, **kw):
        return ServiceConfig(pipelines=tuple(specs), **kw)

    def test_initial_least_loaded_placement(self):
        cfg = self._cfg(
            PipelineSpec(name="hot", weight=8.0),
            PipelineSpec(name="bulk", weight=1.0),
            PipelineSpec(name="aux", weight=1.0),
        )
        shards = ShardMap.initial(cfg, 2)
        # Heaviest first: hot takes endpoint 0 alone; the light pair
        # stacks on endpoint 1.
        assert shards.shard("hot") == (0,)
        assert shards.shard("bulk") == (1,)
        assert shards.shard("aux") == (1,)

    def test_collective_spans_all_endpoints(self):
        cfg = self._cfg(
            PipelineSpec(name="all", collective=True),
            PipelineSpec(name="one"),
        )
        shards = ShardMap.initial(cfg, 3)
        assert shards.shard("all") == (0, 1, 2)

    def test_shard_size_clamped_to_endpoints(self):
        cfg = self._cfg(PipelineSpec(name="wide", shard_size=8))
        assert ShardMap.initial(cfg, 2).shard("wide") == (0, 1)

    def test_set_shard(self):
        cfg = self._cfg(PipelineSpec(name="a"), PipelineSpec(name="b"))
        shards = ShardMap.initial(cfg, 2)
        shards.set_shard("a", (1,))
        assert shards.shard("a") == (1,)
        with pytest.raises(ConfigError):
            shards.set_shard("nope", (0,))
        with pytest.raises(ConfigError):
            shards.set_shard("a", ())
        with pytest.raises(ConfigError):
            shards.shard("nope")
        with pytest.raises(ConfigError):
            ShardMap.initial(cfg, 0)

    def test_as_dict_is_a_copy(self):
        cfg = self._cfg(PipelineSpec(name="a"))
        shards = ShardMap.initial(cfg, 1)
        d = shards.as_dict()
        d["a"] = (9,)
        assert shards.shard("a") == (0,)


class TestRouting:
    def test_block_routing_over_shard(self):
        spec = PipelineSpec(name="p", shard_size=2)
        routed = route_producers(spec, (0, 1), (0, 1, 2, 3))
        assert routed == {0: (0, 1), 1: (2, 3)}

    def test_routing_respects_shard_identity(self):
        spec = PipelineSpec(name="p")
        # A singleton shard on endpoint 3 sends everyone there.
        assert route_producers(spec, (3,), (0, 1, 2)) == {3: (0, 1, 2)}

class TestRegistry:
    def test_register_and_build(self):
        reg = PipelineRegistry({"a": lambda: ["x"]})
        reg.register("b", lambda: ["y", "z"])
        assert reg.build("a") == ["x"]
        assert reg.build("b") == ["y", "z"]

    def test_missing_factory_yields_empty_analyses(self):
        assert PipelineRegistry().build("ghost") == []

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigError):
            PipelineRegistry({"a": 42})
