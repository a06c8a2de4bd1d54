"""Golden values of the reproduced paper artifacts.

Each golden pins an artifact's numbers exactly as the simulator produced
them when the golden was recorded, so a refactor that claims to leave the
physics alone proves it here instead of asserting it.  A deliberate change
of the numerics updates the constants below, and the diff is reviewed.
"""

import collections
import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.waveform_metrics import edge_times, steady_state_levels
from repro.api import CircuitSpec, DCOp, Session, Transient
from repro.core.evaluation import evaluate_lattice
from repro.experiments.variability_xor3 import (
    DEFAULT_SIGMA_BETA,
    DEFAULT_SIGMA_VTH_V,
    variability_circuit_spec,
)
from repro.spice.montecarlo import Gaussian, MonteCarloEngine
from repro.spice.solvers import scipy_available

FIG11_FACTORY = "repro.experiments.fig11_xor3_transient:build_fig11_bench"
LATTICE_FACTORY = "repro.circuits.lattice_netlist:build_scalability_bench"

#: Fig. 11 (default bench, 1 ns fixed backward-Euler step): Newton
#: iterations of the whole march and the output's first rise (10-90 %) and
#: fall (90-10 %) times.
FIG11_NEWTON_ITERATIONS = 2731
FIG11_RISE_TIME_S = 1.517710739387042e-08
FIG11_FALL_TIME_S = 1.7431238086836106e-09
#: Bitwise on one host, with room for last-bit differences between BLAS
#: builds.
FIG11_EDGE_RTOL = 1e-9

#: Scalability DC (14-row identity lattice, n=399, auto -> sparse SuperLU):
#: plain Newton stalls (its best update comes at round 46, and 20 rounds
#: without a new best stop it at 66), then the gmin ladder converges in 220;
#: every Newton iteration pays one factorization.  The solution vector
#: lives next to this file, one float per unknown.
LATTICE_ROWS = 14
LATTICE_UNKNOWNS = 399
LATTICE_STRATEGY = "gmin-stepping"
LATTICE_NEWTON_ITERATIONS = 286
LATTICE_FACTORIZATIONS = 286
LATTICE_SOLUTION_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "lattice400_dc_solution.json"
)
#: Bitwise on one host, with room for last-bit differences between builds.
LATTICE_SOLUTION_RTOL = 1e-12

#: Variability DC warm start (the 128 seed-0 trials of the XOR3 variability
#: study, ``solve_dc_batched`` on the batched dense backend): how many trials
#: each strategy settles, the Newton iterations of the whole stack (every one
#: pays a factorization) and the sha256 of the converged trials' solution
#: rows, in trial order.
VARIABILITY_TRIALS = 128
VARIABILITY_STRATEGIES = {
    "batched-newton": 88,
    "gmin-stepping": 29,
    "source-stepping": 4,
    "failed": 7,
}
VARIABILITY_NEWTON_ITERATIONS = 35553
VARIABILITY_SOLUTION_SHA256 = (
    "b5a26c4145350b001f8f5b6a29da489db0c64ea92920f609c7d5d93ee17adb8a"
)


@pytest.fixture(scope="module")
def fig11():
    session = Session(store=None)
    spec = Transient(circuit=CircuitSpec(FIG11_FACTORY, params={}), timestep_s=1e-9)
    bench = session.build_circuit(spec.circuit_spec())
    return bench, session.run(spec)


class TestFig11Golden:
    def test_converges_with_pinned_newton_count(self, fig11):
        _, result = fig11
        assert result.converged
        assert result.newton_iterations == FIG11_NEWTON_ITERATIONS

    def test_truth_table(self, fig11):
        bench, result = fig11
        time_s = result.arrays["time_s"]
        vout = result.voltage(bench.output_node)
        sequence = bench.input_sequence
        settled = np.interp(sequence.sample_times(), time_s, vout)
        threshold = bench.supply_v / 2.0
        matches = [
            (voltage > threshold)
            == (not evaluate_lattice(bench.lattice, sequence.assignment_at_step(step)))
            for step, voltage in enumerate(settled)
        ]
        assert len(matches) == 8
        assert all(matches)

    def test_edge_times(self, fig11):
        bench, result = fig11
        time_s = result.arrays["time_s"]
        vout = result.voltage(bench.output_node)
        rises, falls = edge_times(time_s, vout, steady_state_levels(time_s, vout))
        assert rises[0] == pytest.approx(FIG11_RISE_TIME_S, rel=FIG11_EDGE_RTOL, abs=0.0)
        assert falls[0] == pytest.approx(FIG11_FALL_TIME_S, rel=FIG11_EDGE_RTOL, abs=0.0)


@pytest.mark.skipif(
    not scipy_available(), reason="the golden was recorded on the sparse backend"
)
class TestScalabilityDCGolden:
    @pytest.fixture(scope="class")
    def lattice_dc(self):
        spec = DCOp(circuit=CircuitSpec(LATTICE_FACTORY, params={"rows": LATTICE_ROWS}))
        return Session(store=None).run(spec)

    def test_fallback_story(self, lattice_dc):
        assert lattice_dc.converged
        assert lattice_dc.scalars["strategy"] == LATTICE_STRATEGY
        assert lattice_dc.newton_iterations == LATTICE_NEWTON_ITERATIONS
        assert lattice_dc.factorizations == LATTICE_FACTORIZATIONS

    def test_solution(self, lattice_dc):
        with open(LATTICE_SOLUTION_PATH, encoding="utf-8") as handle:
            golden = np.array(json.load(handle))
        solution = lattice_dc.arrays["solution"]
        assert solution.shape == golden.shape == (LATTICE_UNKNOWNS,)
        assert solution == pytest.approx(golden, rel=LATTICE_SOLUTION_RTOL, abs=0.0)


class TestVariabilityDCGolden:
    @pytest.fixture(scope="class")
    def points(self):
        bench = Session(store=None).build_circuit(variability_circuit_spec())
        montecarlo = MonteCarloEngine(
            bench.circuit,
            {
                "mos_vth": Gaussian(sigma=DEFAULT_SIGMA_VTH_V),
                "mos_beta": Gaussian(sigma=DEFAULT_SIGMA_BETA, relative=True),
            },
            seed=0,
        )
        return montecarlo.run_batched_dc(VARIABILITY_TRIALS)

    def test_strategy_counts(self, points):
        assert collections.Counter(points.strategies) == VARIABILITY_STRATEGIES

    def test_newton_iterations(self, points):
        assert int(points.iterations.sum()) == VARIABILITY_NEWTON_ITERATIONS
        assert points.factorizations == VARIABILITY_NEWTON_ITERATIONS

    def test_converged_solutions(self, points):
        rows = np.ascontiguousarray(points.solutions[points.converged])
        assert hashlib.sha256(rows.tobytes()).hexdigest() == VARIABILITY_SOLUTION_SHA256
