"""The tag registry and the flow table: purity, disjointness, claims."""

from __future__ import annotations

import pytest

from repro.array import HaloExchanger
from repro.errors import ConfigError
from repro.mpi import run_spmd
from repro.mpi.comm import SelfCommunicator
from repro.service import PipelineSpec, ServiceConfig
from repro.transport import channel
from repro.transport.flows import (
    ACK_TAG,
    ARRAY_TAG_BASE,
    CTRL_TAG,
    DATA_TAG,
    FlowTable,
    array_tags,
    pipeline_tags,
)

NAMES = ["grid", "particles", "halo", "a", "b", "stencil", "probe"]


def _flat(tags):
    return {t for pair in tags.values() for t in pair}


class TestRegistryPurity:
    def test_pipeline_zero_is_the_classic_pair(self):
        assert pipeline_tags(0) == (100, 101) == (DATA_TAG, ACK_TAG)
        # transport.flows is the tags' only owner: the channel module
        # re-exports neither, yet still defaults a bare endpoint to them.
        assert not hasattr(channel, "DATA_TAG") and not hasattr(channel, "ACK_TAG")
        bare = channel.ReliableSender(SelfCommunicator(), 1)
        assert (bare.data_tag, bare.ack_tag) == (100, 101)
        one = ServiceConfig(pipelines=(PipelineSpec(name="bodies"),))
        assert one.tags("bodies") == (100, 101)

    def test_pipeline_tags_follow_sorted_names_not_declaration_order(self):
        specs = [PipelineSpec(name=n) for n in ("zeta", "alpha", "mid")]
        forward = ServiceConfig(pipelines=tuple(specs))
        backward = ServiceConfig(pipelines=tuple(reversed(specs)))
        for name in ("alpha", "mid", "zeta"):
            assert forward.tags(name) == backward.tags(name)
        assert forward.tags("alpha") == (100, 101)

    def test_array_tags_are_a_pure_function_of_the_name(self):
        """Same names asked in any thread order give the same tags."""
        reference = {name: array_tags(name) for name in NAMES}
        orders = (NAMES, NAMES[::-1], NAMES[3:] + NAMES[:3])

        def main(comm):
            return {name: array_tags(name) for name in orders[comm.rank]}

        for answers in run_spmd(3, main):
            assert answers == reference

    def test_planes_never_overlap(self):
        service = {t for k in range(64) for t in pipeline_tags(k)}
        arrays = set().union(*(_flat(array_tags(n)) for n in NAMES))
        assert CTRL_TAG not in service | arrays
        assert not service & arrays
        assert min(arrays) >= ARRAY_TAG_BASE > max(service)
        with pytest.raises(ConfigError):
            pipeline_tags(-1)
        with pytest.raises(ConfigError):
            pipeline_tags(ARRAY_TAG_BASE)  # would run into the array plane

    def test_differently_named_exchangers_get_disjoint_tags(self):
        for i, a in enumerate(NAMES):
            for b in NAMES[i + 1:]:
                assert not _flat(array_tags(a)) & _flat(array_tags(b)), (a, b)
        halo, move = array_tags("grid")["halo"], array_tags("grid")["move"]
        assert len({*halo, *move}) == 4


class TestClaims:
    def test_same_name_twice_on_one_communicator_is_a_config_error(self):
        comm = SelfCommunicator()
        first = HaloExchanger(comm, name="grid")
        with pytest.raises(ConfigError) as err:
            HaloExchanger(comm, name="grid")
        assert err.value.details["plane"] == "array"
        assert err.value.details["name"] == "grid"
        assert err.value.details["holder"] == ["array", "grid"]
        HaloExchanger(comm, name="particles").close()  # other names are fine
        first.close()
        HaloExchanger(comm, name="grid").close()  # closed: the name is free

    def test_overlapping_tags_under_another_name_are_refused(self):
        comm = SelfCommunicator()
        FlowTable(comm, "array", "grid", array_tags("grid"))
        with pytest.raises(ConfigError, match="still claimed"):
            FlowTable(comm, "test", "other", {"x": array_tags("grid")["move"]})

    def test_name_reuse_on_a_fresh_world_stays_legal(self):
        def main(comm):
            HaloExchanger(comm, name="grid")  # never closed
            return True

        assert run_spmd(2, main) == [True, True]
        assert run_spmd(2, main) == [True, True]

    def test_release_is_idempotent_and_only_frees_its_own_tags(self):
        comm = SelfCommunicator()
        a = FlowTable(comm, "array", "a", array_tags("a"))
        b = FlowTable(comm, "array", "b", array_tags("b"))
        a.release()
        a.release()
        with pytest.raises(ConfigError):
            FlowTable(comm, "array", "b", array_tags("b"))
        b.release()


class TestFlowTable:
    def test_flows_are_cached_by_flow_and_peer(self):
        table = FlowTable(SelfCommunicator(), "array", "grid", array_tags("grid"))
        halo = table.sender("halo", 1)
        assert table.sender("halo", 1) is halo
        assert table.sender("move", 1) is not halo
        assert (halo.data_tag, halo.ack_tag) == array_tags("grid")["halo"]
        assert halo.pipeline == "grid.halo"
        receiver = table.receiver("move", 2)
        assert table.receiver("move", 2) is receiver
        assert (receiver.data_tag, receiver.ack_tag) == array_tags("grid")["move"]
        assert sorted(table.senders) == [("halo", 1), ("move", 1)]

    def test_sender_totals_sum_per_flow_and_overall(self):
        table = FlowTable(SelfCommunicator(), "array", "grid", array_tags("grid"))
        table.sender("halo", 1).metrics.retries = 2
        table.sender("halo", 2).metrics.retries = 3
        table.sender("move", 1).metrics.retries = 5
        assert table.sender_totals("halo")["retries"] == 5
        assert table.sender_totals("halo")["senders"] == 2
        assert table.sender_totals()["retries"] == 10
        assert table.sender_totals("absent")["senders"] == 0
