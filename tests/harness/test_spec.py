"""Tests for the Table 1 run matrix and its rank/GPU accounting."""

from __future__ import annotations

import pytest

from repro.errors import PlacementError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.harness.spec import InSituPlacement, RunSpec, table1_matrix
from repro.sensei.execution import ExecutionMethod


class TestTable1Matrix:
    def test_eight_cases(self):
        specs = table1_matrix()
        assert len(specs) == 8
        assert len({(s.placement, s.method) for s in specs}) == 8

    def test_lockstep_rows_first(self):
        specs = table1_matrix()
        assert all(s.method is ExecutionMethod.LOCKSTEP for s in specs[:4])
        assert all(s.method is ExecutionMethod.ASYNCHRONOUS for s in specs[4:])

    def test_paper_rank_accounting(self):
        """Table 1's columns: ranks/node 4,4,3,2 and totals 512,512,384,256."""
        specs = table1_matrix()
        assert [s.ranks_per_node for s in specs[:4]] == [4, 4, 3, 2]
        assert [s.total_ranks for s in specs[:4]] == [512, 512, 384, 256]
        assert all(s.nodes == 128 for s in specs)

    def test_gpu_accounting(self):
        by_placement = {s.placement: s for s in table1_matrix()[:4]}
        host = by_placement[InSituPlacement.HOST]
        assert host.ranks_per_node == 4 and host.insitu_gpus_per_node == 0
        same = by_placement[InSituPlacement.SAME_DEVICE]
        assert same.ranks_per_node == 4 and same.insitu_gpus_per_node == 0
        ded1 = by_placement[InSituPlacement.DEDICATED_1]
        assert ded1.ranks_per_node == 3 and ded1.insitu_gpus_per_node == 1
        ded2 = by_placement[InSituPlacement.DEDICATED_2]
        assert ded2.ranks_per_node == 2 and ded2.insitu_gpus_per_node == 2

    def test_one_sim_rank_per_gpu(self):
        """'there is always only 1 simulation rank per GPU'"""
        for s in table1_matrix():
            assert s.ranks_per_node + s.insitu_gpus_per_node <= s.gpus_per_node


class TestInsituDevicePlacement:
    def _resolve_node_local(self, spec, n=4):
        p = spec.insitu_device_placement()
        return [p.resolve(r, n_available=spec.gpus_per_node)
                for r in range(spec.ranks_per_node)]

    def test_host_placement(self):
        spec = RunSpec(InSituPlacement.HOST, ExecutionMethod.LOCKSTEP)
        assert self._resolve_node_local(spec) == [HOST_DEVICE_ID] * 4

    def test_same_device_placement(self):
        """Analysis lands on the rank's own simulation GPU."""
        spec = RunSpec(InSituPlacement.SAME_DEVICE, ExecutionMethod.LOCKSTEP)
        devs = self._resolve_node_local(spec)
        assert devs == [0, 1, 2, 3]  # rank r simulates on GPU r

    def test_dedicated_1_placement(self):
        """All three ranks' analyses land on the reserved GPU 3."""
        spec = RunSpec(InSituPlacement.DEDICATED_1, ExecutionMethod.LOCKSTEP)
        devs = self._resolve_node_local(spec)
        assert devs == [3, 3, 3]
        sim = range(3)  # rank r simulates on GPU r
        assert set(devs).isdisjoint(sim)

    def test_dedicated_2_placement(self):
        """Each rank pairs its sim GPU with a reserved analysis GPU."""
        spec = RunSpec(InSituPlacement.DEDICATED_2, ExecutionMethod.LOCKSTEP)
        devs = self._resolve_node_local(spec)
        assert devs == [2, 3]
        sim = range(2)
        assert set(devs).isdisjoint(sim)

    def test_custom_gpu_count(self):
        spec = RunSpec(
            InSituPlacement.DEDICATED_2, ExecutionMethod.LOCKSTEP,
            nodes=2, gpus_per_node=8,
        )
        assert spec.ranks_per_node == 4
        assert self._resolve_node_local(spec) == [4, 5, 6, 7]

    def test_odd_gpu_count_rejected_for_dedicated2(self):
        with pytest.raises(PlacementError):
            RunSpec(
                InSituPlacement.DEDICATED_2, ExecutionMethod.LOCKSTEP,
                gpus_per_node=3,
            )

    def test_invalid_sizes(self):
        with pytest.raises(PlacementError):
            RunSpec(InSituPlacement.HOST, ExecutionMethod.LOCKSTEP, nodes=0)

    def test_labels(self):
        spec = RunSpec(InSituPlacement.HOST, ExecutionMethod.ASYNCHRONOUS)
        assert "host" in spec.label and "asynchronous" in spec.label
