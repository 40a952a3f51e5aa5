"""Integration: the complete paper pipeline, end to end.

Newton++ (MPI + virtual-device offload) -> SENSEI bridge -> XML
configured analyses -> data binning on assigned devices -> merged
results -> writers, across placements and execution methods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.harness.spec import InSituPlacement, RunSpec, table1_matrix
from repro.mpi.comm import run_spmd
from repro.newton.adaptor import NewtonDataAdaptor
from repro.newton.solver import NewtonSolver, SolverConfig
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.bridge import Bridge
from repro.sensei.configurable import ConfigurableAnalysis
from repro.sensei.execution import ExecutionMethod

CFG = SolverConfig(
    n_bodies=160, dt=1e-3, softening=0.05, seed=2, mass_range=(0.01, 0.03)
)


class TestXmlDrivenPipeline:
    XML = """
    <sensei>
      <analysis type="data_binning" mesh="bodies" axes="x,y" bins="8,8"
                variables="mass:sum" placement="host" name="xy"/>
      <analysis type="data_binning" mesh="bodies" axes="x,vx" bins="8,8"
                variables="mass:average" placement="auto" name="xvx"/>
    </sensei>
    """

    def test_multi_analysis_xml_run_over_mpi(self):
        def fn(comm):
            solver = NewtonSolver(CFG, comm)
            ca = ConfigurableAnalysis(xml=self.XML)
            bridge = Bridge()
            bridge.initialize(comm, analyses=[ca])
            adaptor = NewtonDataAdaptor(solver)
            solver.run(3, bridge=bridge, adaptor=adaptor)
            bridge.finalize()
            return {
                child.name: float(child.latest.cell_array_as_grid("count").sum())
                for child in ca.children
            }

        for counts in run_spmd(4, fn):
            assert counts == {"xy": 160.0, "xvx": 160.0}

    def test_xml_asynchronous_with_placement(self):
        xml = """
        <sensei>
          <analysis type="data_binning" mesh="bodies" axes="y,z" bins="4,4"
                    execution="asynchronous" placement="auto"
                    n_use="1" offset="3"/>
        </sensei>
        """

        def fn(comm):
            solver = NewtonSolver(CFG, comm)
            ca = ConfigurableAnalysis(xml=xml)
            bridge = Bridge()
            bridge.initialize(comm, analyses=[ca])
            adaptor = NewtonDataAdaptor(solver)
            solver.run(2, bridge=bridge, adaptor=adaptor)
            bridge.finalize()
            child = ca.children[0]
            return (
                child.resolve_device(),
                float(child.latest.cell_array_as_grid("count").sum()),
            )

        for dev, count in run_spmd(3, fn):
            assert dev == 3  # everyone's analysis on the dedicated GPU
            assert count == 160.0


class TestPlacementMatrixIntegration:
    @pytest.mark.parametrize("spec", table1_matrix(nodes=1),
                             ids=lambda s: s.label)
    def test_every_table1_case_full_pipeline(self, spec: RunSpec):
        """All 8 evaluation cases drive the real stack correctly."""
        placement = spec.insitu_device_placement()

        def fn(comm):
            solver = NewtonSolver(CFG, comm)
            analysis = BinningAnalysis(
                "bodies",
                [AxisSpec("x", 8), AxisSpec("y", 8)],
                [BinRequest(ReductionOp.SUM, "mass")],
            )
            analysis.set_placement(placement)
            analysis.set_execution_method(spec.method)
            bridge = Bridge()
            bridge.initialize(comm, analyses=[analysis])
            adaptor = NewtonDataAdaptor(solver)
            solver.run(2, bridge=bridge, adaptor=adaptor)
            bridge.finalize()
            mass = float(
                analysis.latest.cell_array_as_grid("mass_sum").sum()
            )
            total = comm.allreduce(float(solver.bodies.mass.sum()))
            return mass, total

        for mass, total in run_spmd(spec.ranks_per_node, fn):
            assert mass == pytest.approx(total)


class TestDataIntegrity:
    def test_async_results_match_lockstep(self):
        """Same physics + same analysis => identical grids, either method."""

        def run(method):
            def fn(comm):
                solver = NewtonSolver(CFG, comm)
                analysis = BinningAnalysis(
                    "bodies",
                    [AxisSpec("x", 8, -1, 1), AxisSpec("y", 8, -1, 1)],
                    [BinRequest(ReductionOp.SUM, "mass")],
                )
                analysis.set_device_id(-1)
                analysis.set_execution_method(method)
                bridge = Bridge()
                bridge.initialize(comm, analyses=[analysis])
                adaptor = NewtonDataAdaptor(solver)
                solver.run(3, bridge=bridge, adaptor=adaptor)
                bridge.finalize()
                return analysis.latest.cell_array_as_grid("mass_sum")

            return run_spmd(2, fn)[0]

        lockstep = run(ExecutionMethod.LOCKSTEP)
        asynchronous = run(ExecutionMethod.ASYNCHRONOUS)
        np.testing.assert_allclose(asynchronous, lockstep, rtol=1e-12)

    def test_zero_copy_lockstep_sees_current_state(self):
        """Lockstep binning consumes the solver's live arrays zero-copy:
        the grid must reflect the positions of the step it ran at."""
        solver = NewtonSolver(CFG)
        analysis = BinningAnalysis(
            "bodies", [AxisSpec("x", 4, -1, 1)], keep_results=True
        )
        analysis.set_device_id(-1)
        bridge = Bridge()
        bridge.initialize(analyses=[analysis])
        adaptor = NewtonDataAdaptor(solver)
        solver.run(2, bridge=bridge, adaptor=adaptor)
        bridge.finalize()
        # Recompute the final-step histogram from the solver state.
        expected, _ = np.histogram(
            np.clip(solver.bodies.x, -1, 1 - 1e-12), bins=4, range=(-1, 1)
        )
        np.testing.assert_array_equal(
            analysis.results[-1].cell_array_as_grid("count"), expected
        )

    def test_insitu_every_iteration(self):
        """'In situ processing via SENSEI was performed at every
        iteration.' (Section 4.3)"""
        solver = NewtonSolver(CFG)
        analysis = BinningAnalysis("bodies", [AxisSpec("x", 4)], keep_results=True)
        analysis.set_device_id(-1)
        bridge = Bridge()
        bridge.initialize(analyses=[analysis])
        adaptor = NewtonDataAdaptor(solver)
        solver.run(5, bridge=bridge, adaptor=adaptor)
        bridge.finalize()
        assert len(analysis.results) == 5
        assert [t.time_step for t in analysis.timings] == [1, 2, 3, 4, 5]
