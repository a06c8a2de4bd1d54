"""The plain DC Newton's stall rule.

A plain DC Newton run that goes ``NEWTON_STALL_ROUNDS`` rounds without a new
smallest update stops as not converged and hands over to the fallback
ladders.  A converging run is never cut, the ladders keep their full budget
(so their answers do not move), and the serial and batched drivers apply
the rule identically.
"""

import json
import os

import numpy as np
import pytest

from repro.api import Session
from repro.circuits.lattice_netlist import build_scalability_bench
from repro.experiments.variability_xor3 import (
    DEFAULT_SIGMA_BETA,
    DEFAULT_SIGMA_VTH_V,
    variability_circuit_spec,
)
from repro.spice.engine import NEWTON_STALL_ROUNDS, get_engine
from repro.spice.montecarlo import Gaussian, MonteCarloEngine
from repro.spice.solvers import get_solver, scipy_available

LATTICE_SOLUTION_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "lattice400_dc_solution.json"
)

#: Seed-0 trials of the 128-trial XOR3 variability study whose plain Newton
#: stalls: 15, 54, 82 and 111 used to converge by plain Newton after long
#: stalls and now reach gmin stepping; 9 fails every ladder.
STALLING_TRIALS = (9, 15, 54, 82, 111)


@pytest.mark.parametrize(
    "rows, strategy, iterations",
    [
        # Converge by plain Newton after stretches of up to 13 rounds without
        # a new best update: the rule never cuts a converging run.
        (8, "newton", 230),
        (10, "newton", 240),
        # n=399: the best plain update comes at round 46, the run stops at
        # 66, and the untouched gmin ladder converges in 220 rounds.
        (14, "gmin-stepping", 286),
    ],
)
def test_lattice_dc_story(rows, strategy, iterations):
    op = get_engine(build_scalability_bench(rows).circuit).solve_dc(solver="auto")
    assert op.converged
    assert op.convergence_info.strategy == strategy
    assert op.iterations == op.convergence_info.factorizations == iterations
    if rows == 14 and scipy_available():
        # The golden was recorded on SuperLU, which "auto" picks at n=399.
        with open(LATTICE_SOLUTION_PATH, encoding="utf-8") as handle:
            golden = np.array(json.load(handle))
        assert op.solution == pytest.approx(golden, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("loop", ["_newton_row", "_newton_batched"])
def test_stall_rule_stops_the_plain_run_only(loop):
    engine = get_engine(build_scalability_bench(14).circuit)
    # Either Newton loop on a stack of one: the DC driver takes the row
    # loop, and the stacked loop's rows must stop at the same round.
    newton = getattr(engine, loop)
    start = engine.circuit.initial_solution()[np.newaxis]
    controls = dict(
        gmin=1e-9,
        max_iterations=300,
        tolerance_v=1e-7,
        damping_v=0.6,
        solver=get_solver("dense").select(engine.compiled),
    )
    _, used, converged, _ = map(
        np.atleast_1d, newton(start.copy(), {}, stall_rounds=NEWTON_STALL_ROUNDS, **controls)
    )
    assert (used[0], converged[0]) == (66, False)
    # Without the rule (every ladder rung, every transient step) the same
    # run spends its whole budget.
    _, used, converged, _ = map(np.atleast_1d, newton(start.copy(), {}, **controls))
    assert (used[0], converged[0]) == (300, False)


@pytest.fixture(scope="module")
def variability_engine():
    bench = Session(store=None).build_circuit(variability_circuit_spec())
    montecarlo = MonteCarloEngine(
        bench.circuit,
        {
            "mos_vth": Gaussian(sigma=DEFAULT_SIGMA_VTH_V),
            "mos_beta": Gaussian(sigma=DEFAULT_SIGMA_BETA, relative=True),
        },
        seed=0,
    )
    return get_engine(bench.circuit), montecarlo


def test_batched_stall_rule_is_bitwise_serial(variability_engine):
    engine, montecarlo = variability_engine
    overlays = [montecarlo.sample_trial_overlay(trial) for trial in STALLING_TRIALS]
    stacks = {
        name: np.stack([overlay[name] for overlay in overlays]) for name in overlays[0]
    }
    batched = engine.solve_dc_batched(stacks, refresh=False)
    serial = []
    try:
        for overlay in overlays:
            engine.compiled.set_parameter_overlay(overlay)
            serial.append(engine.solve_dc(refresh=False))
    finally:
        engine.clear_parameter_overlay()
    strategies = [op.convergence_info.strategy for op in serial]
    assert strategies == ["failed"] + ["gmin-stepping"] * 4
    assert batched.strategies == tuple(
        "batched-newton" if strategy == "newton" else strategy for strategy in strategies
    )
    for row, op in enumerate(serial):
        assert np.array_equal(batched.solutions[row], op.solution)
        assert batched.iterations[row] == op.iterations
        assert batched.max_residuals[row] == op.max_residual
        assert batched.converged[row] == op.converged
