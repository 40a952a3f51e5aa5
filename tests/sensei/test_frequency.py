"""Tests for the analysis cadence: the paper analyses every step.

There is no cadence control; ``frequency=`` on an ``<analysis>`` is an
unknown attribute (``tests/sensei/test_configurable.py``).
"""

from __future__ import annotations

import numpy as np

from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.svtk.table import TableData


class CountingAnalysis(AnalysisAdaptor):
    def __init__(self):
        super().__init__("counting")
        self.steps_run: list[int] = []

    def acquire(self, data, deep):
        return data.time_step

    def process(self, payload, comm, device_id):
        self.steps_run.append(payload)


def adaptor_at(step):
    t = TableData("bodies")
    t.add_host_column("x", np.zeros(3))
    da = TableDataAdaptor({"bodies": t})
    da.set_step(step, 0.0)
    return da


class TestFrequency:
    def test_default_runs_every_step(self):
        a = CountingAnalysis()
        for s in range(4):
            a.execute(adaptor_at(s))
        a.finalize()
        assert a.steps_run == [0, 1, 2, 3]
        assert [t.time_step for t in a.timings] == [0, 1, 2, 3]
