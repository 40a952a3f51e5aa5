"""Tests for the descriptive-statistics back-end."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.mpi.comm import run_spmd
from repro.sensei.backends.stats import StatisticsAnalysis
from repro.sensei.configurable import ConfigurableAnalysis
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.svtk.table import TableData


def make_adaptor(values_by_col, step=0, comm=None):
    t = TableData("bodies")
    for name, vals in values_by_col.items():
        t.add_host_column(name, np.asarray(vals, dtype=float))
    da = TableDataAdaptor({"bodies": t}, comm=comm)
    da.set_step(step, 0.0)
    return da


class TestSerialStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(3.0, 2.0, 500)
        a = StatisticsAnalysis("bodies")
        a.execute(make_adaptor({"v": vals}))
        a.finalize()
        s = a.latest["v"]
        assert s.n == 500
        assert s.minimum == pytest.approx(vals.min())
        assert s.maximum == pytest.approx(vals.max())
        assert s.mean == pytest.approx(vals.mean())
        assert s.std == pytest.approx(vals.std())

    def test_column_selection(self):
        a = StatisticsAnalysis("bodies", columns=["a"])
        a.execute(make_adaptor({"a": [1.0], "b": [2.0]}))
        a.finalize()
        assert list(a.latest) == ["a"]

    def test_missing_column(self):
        a = StatisticsAnalysis("bodies", columns=["ghost"])
        with pytest.raises(ExecutionError, match="ghost"):
            a.execute(make_adaptor({"a": [1.0]}))

    def test_history_per_step(self):
        a = StatisticsAnalysis("bodies")
        for step in range(3):
            a.execute(make_adaptor({"v": [float(step)]}, step=step))
        a.finalize()
        assert len(a.history) == 3
        assert [h["v"].mean for h in a.history] == [0.0, 1.0, 2.0]

    def test_empty_before_first_step(self):
        assert StatisticsAnalysis("bodies").latest is None


class TestDistributedStats:
    def test_exact_distributed_merge(self):
        """Merged moments equal a serial pass over the concatenation."""
        rng = np.random.default_rng(1)
        shards = [rng.normal(float(i), 1.0 + i, 50 + 10 * i) for i in range(3)]
        everything = np.concatenate(shards)

        def fn(comm):
            a = StatisticsAnalysis("bodies")
            a.initialize(comm)
            a.execute(make_adaptor({"v": shards[comm.rank]}, comm=comm))
            a.finalize()
            return a.latest["v"]

        for s in run_spmd(3, fn):
            assert s.n == everything.size
            assert s.mean == pytest.approx(everything.mean())
            assert s.std == pytest.approx(everything.std())
            assert s.minimum == pytest.approx(everything.min())
            assert s.maximum == pytest.approx(everything.max())

    def test_empty_rank_contributions(self):
        def fn(comm):
            vals = [] if comm.rank == 0 else [1.0, 3.0]
            a = StatisticsAnalysis("bodies")
            a.initialize(comm)
            a.execute(make_adaptor({"v": vals}, comm=comm))
            a.finalize()
            return a.latest["v"]

        for s in run_spmd(2, fn):
            assert s.n == 2
            assert s.mean == 2.0

    def test_all_empty_gives_nan(self):
        a = StatisticsAnalysis("bodies")
        a.execute(make_adaptor({"v": []}))
        a.finalize()
        s = a.latest["v"]
        assert s.n == 0
        assert np.isnan(s.mean)


class TestAsyncAndXml:
    def test_async_execution(self):
        a = StatisticsAnalysis("bodies")
        a.set_execution_method(ExecutionMethod.ASYNCHRONOUS)
        da = make_adaptor({"v": [1.0, 2.0, 3.0]})
        a.execute(da)
        # Clobber after launch: deep copy must protect the analysis.
        da.get_mesh("bodies")["v"].data[:] = 0.0
        a.finalize()
        assert a.latest["v"].mean == pytest.approx(2.0)

    def test_xml_configuration(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="statistics" mesh="bodies" columns="a,b"
                        placement="host"/>
            </sensei>
        """)
        ca.execute(make_adaptor({"a": [1.0, 2.0], "b": [5.0, 7.0], "c": [0.0, 0.0]}))
        ca.finalize()
        child = ca.children[0]
        assert sorted(child.latest) == ["a", "b"]
        assert child.latest["b"].mean == 6.0


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
)
def test_stats_properties(vals):
    """min <= mean <= max and std >= 0 for any finite data."""
    a = StatisticsAnalysis("bodies")
    a.execute(make_adaptor({"v": vals}))
    a.finalize()
    s = a.latest["v"]
    assert s.minimum <= s.mean + 1e-9
    assert s.mean <= s.maximum + 1e-9
    assert s.std >= 0.0
