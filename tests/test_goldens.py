"""Golden values of the reproduced paper artifacts.

Each golden pins an artifact's numbers exactly as the simulator produced
them when the golden was recorded, so a refactor that claims to leave the
physics alone proves it here instead of asserting it.  A deliberate change
of the numerics updates the constants below, and the diff is reviewed.
"""

import numpy as np
import pytest

from repro.analysis.waveform_metrics import edge_times, steady_state_levels
from repro.api import CircuitSpec, Session, Transient
from repro.core.evaluation import evaluate_lattice

FIG11_FACTORY = "repro.experiments.fig11_xor3_transient:build_fig11_bench"

#: Fig. 11 (default bench, 1 ns fixed backward-Euler step): Newton
#: iterations of the whole march and the output's first rise (10-90 %) and
#: fall (90-10 %) times.
FIG11_NEWTON_ITERATIONS = 2731
FIG11_RISE_TIME_S = 1.517710739387042e-08
FIG11_FALL_TIME_S = 1.7431238086836106e-09
#: Bitwise on one host, with room for last-bit differences between BLAS
#: builds.
FIG11_EDGE_RTOL = 1e-9


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
