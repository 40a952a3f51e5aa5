"""Integration: the paper's exact in situ layout, end to end.

Section 4.3: "the data binning operator was applied to 10 variables
over 9 coordinate systems for a total of 90 binning operations.
Binning of each coordinate system was done sequentially in a separate
data binning operator instance and orchestrated by SENSEI using its XML
configuration feature."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.harness.runner import COORD_SYSTEMS, VARIABLES
from repro.mpi.comm import run_spmd
from repro.newton.adaptor import NewtonDataAdaptor
from repro.newton.solver import NewtonSolver, SolverConfig
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.bridge import Bridge
from repro.sensei.configurable import ConfigurableAnalysis

N_BODIES = 200
STEPS = 2
BINS = 8


def paper_layout_xml(execution: str = "lockstep") -> str:
    """Nine <analysis> elements, ten variable reductions each."""
    variables = ",".join(f"{var}:{op.value}" for var, op in VARIABLES)
    body = "".join(
        f'<analysis type="data_binning" mesh="bodies" '
        f'axes="{a},{b}" bins="{BINS},{BINS}" variables="{variables}" '
        f'execution="{execution}" placement="host" name="bin-{a}-{b}"/>'
        for a, b in COORD_SYSTEMS
    )
    return f"<sensei>{body}</sensei>"


@pytest.mark.parametrize("execution", ["lockstep", "asynchronous"])
def test_ninety_binning_operations_per_step(execution):
    xml = paper_layout_xml(execution)

    def fn(comm):
        solver = NewtonSolver(
            SolverConfig(n_bodies=N_BODIES, dt=1e-3, softening=0.05,
                         seed=8, mass_range=(0.01, 0.03)),
            comm,
        )
        ca = ConfigurableAnalysis(xml=xml)
        bridge = Bridge()
        bridge.initialize(comm, analyses=[ca])
        adaptor = NewtonDataAdaptor(solver)
        solver.run(STEPS, bridge=bridge, adaptor=adaptor)
        bridge.finalize()

        # 9 operator instances, each binning 10 variables (+ count).
        assert len(ca.children) == 9
        ops = sum(len(c.binner.requests) - 1 for c in ca.children)
        totals = {}
        for child in ca.children:
            mesh = child.latest
            totals[child.name] = float(mesh.cell_array_as_grid("count").sum())
            # Every variable produced its result grid.
            for var, op in VARIABLES:
                assert op.result_name(var) in mesh.cell_array_names
        return ops, totals

    for ops, totals in run_spmd(4, fn):
        assert ops == 90  # the paper's number
        assert all(v == N_BODIES for v in totals.values())
        assert len(totals) == 9


def test_paper_layout_mass_conservation_across_systems():
    """Every coordinate system's mass_sum grid carries the same total."""
    def fn(comm):
        solver = NewtonSolver(
            SolverConfig(n_bodies=N_BODIES, dt=1e-3, softening=0.05,
                         seed=9, mass_range=(0.01, 0.03)),
            comm,
        )
        ca = ConfigurableAnalysis(xml=paper_layout_xml())
        bridge = Bridge()
        bridge.initialize(comm, analyses=[ca])
        adaptor = NewtonDataAdaptor(solver)
        solver.run(1, bridge=bridge, adaptor=adaptor)
        bridge.finalize()
        total_mass = comm.allreduce(float(solver.bodies.mass.sum()))
        sums = [
            float(c.latest.cell_array_as_grid("mass_sum").sum())
            for c in ca.children
        ]
        return total_mass, sums

    for total_mass, sums in run_spmd(2, fn):
        np.testing.assert_allclose(sums, total_mass, rtol=1e-12)


def test_fig1_mass_sum_grids_conserve_mass():
    """Fig. 1's pipeline at 4 000 bodies (the paper's figure used 100k;
    the all-pairs kernel runs in real numpy here): a massive central
    body, mass-sum binning onto 256x256 x-y and x-z grids."""
    solver = NewtonSolver(SolverConfig(
        n_bodies=4000, dt=1e-4, softening=0.05, seed=42,
        central_mass=100.0, mass_range=(0.01, 0.03)))
    grids = [BinningAnalysis("bodies", [AxisSpec(a, 256), AxisSpec(b, 256)],
                             [BinRequest(ReductionOp.SUM, "mass")], name=f"fig1-{a}{b}")
             for a, b in (("x", "y"), ("x", "z"))]
    for g in grids:
        g.set_device_id(-1)
    bridge = Bridge()
    bridge.initialize(analyses=grids)
    solver.run(3, bridge=bridge, adaptor=NewtonDataAdaptor(solver))
    bridge.finalize()
    total_mass = solver.comm.allreduce(float(solver.bodies.mass.sum()))
    for g in grids:
        count = g.latest.cell_array_as_grid("count")
        mass_sum = g.latest.cell_array_as_grid("mass_sum")
        assert count.shape == (256, 256)
        # Every body lands in exactly one bin; binned mass == system mass.
        assert count.sum() == 4000
        assert mass_sum.sum() == np.float64(total_mass)
        # The central body dominates the densest-mass bin, and the rest
        # spread across the grid.
        assert mass_sum.max() >= 100.0
        assert (count > 0).sum() > 100
