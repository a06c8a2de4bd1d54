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
from repro.circuits import build_scalability_bench
from repro.core.evaluation import evaluate_lattice
from repro.experiments.fig9_switch_model import run_fig9
from repro.experiments.fig11_xor3_transient import build_fig11_bench
from repro.experiments.fig12_series_switches import run_fig12, run_fig12_drive_curves
from repro.experiments.terminal_configurations import run_terminal_configuration_sweep
from repro.experiments.variability_xor3 import (
    DEFAULT_SIGMA_BETA,
    DEFAULT_SIGMA_VTH_V,
    run_variability_xor3,
    variability_circuit_spec,
)
from repro.spice.engine import get_engine
from repro.spice.montecarlo import Gaussian, MonteCarloEngine
from repro.spice.solvers import scipy_available

FIG11_FACTORY = "repro.experiments.fig11_xor3_transient:build_fig11_bench"
LATTICE_FACTORY = "repro.circuits.lattice_netlist:build_scalability_bench"

#: Fig. 9 (square HfO2 switch model, 1.2 V): the DC current through each
#: terminal pair with the gate at the supply (on) and at 0 V (off), the
#: other two terminals floating.  Serial dense Newton on a small circuit.
FIG9_CURRENTS_ON_A = {
    ("T1", "T3"): 7.853960852522827e-05,
    ("T1", "T4"): 7.853960852522827e-05,
    ("T2", "T3"): 7.853960852522827e-05,
    ("T2", "T4"): 7.853960852522827e-05,
    ("T1", "T2"): 7.237665149355157e-05,
    ("T3", "T4"): 7.237665149355157e-05,
}
FIG9_CURRENTS_OFF_A = {
    ("T1", "T3"): 2.2566912187433845e-09,
    ("T1", "T4"): 2.2566912187433845e-09,
    ("T2", "T3"): 2.2566912187433845e-09,
    ("T2", "T4"): 2.2566912187433845e-09,
    ("T1", "T2"): 2.248858923864168e-09,
    ("T3", "T4"): 2.248858923864168e-09,
}

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

#: Modified Newton (``newton="reuse"``) on the 6-row identity lattice
#: (n=79, the suite's paper-scale switch model), warm-started from the
#: nominal operating point shifted by 0.05 V: the serial sparse solve's
#: (iterations, factorizations, reuses) and the sha256 of its solution.
REUSE_LATTICE_ROWS = 6
REUSE_SERIAL_COUNTS = (90, 77, 13)
REUSE_SERIAL_SHA256 = "771da4643da47cbaf6b65aff324461ea97518301b9ee5da7c2fca6be2f152e19"
#: The same warm start over 8 seeded ``mos_vth`` trials (sigma 2 mV, seed
#: 29) stacked on the sparse-batched backend: total iterations,
#: factorizations and reuses, and the sha256 of the solution stack.
REUSE_STACKED_TRIALS = 8
REUSE_STACKED_COUNTS = (681, 455, 226)
REUSE_STACKED_SHA256 = "563fb5a910726e5baa63f36439992907064a95bc36cc4da4e8644b9df47ee718"
#: A 200 ns, 1 ns-step Fig. 11 march on the sparse backend (same switch
#: model): Newton iterations, factorizations and reuses of the whole march
#: (warm-start DC included), and the sha256 of the solution rows.
REUSE_TRANSIENT_COUNTS = (425, 806, 319)
REUSE_TRANSIENT_SHA256 = "61da0840a03acc4b5ce40cf5faac6f4bfade27e288f2d4f7fdfe791866426a73"

#: Fig. 12 with its default chain lengths and extracted switch model: the
#: chain current at the nominal supply, the drive voltage for the
#: two-switch chain's current, and that target current.
FIG12_CURRENTS_A = {
    1: 7.237665149355157e-05,
    3: 2.347046365418081e-05,
    5: 1.4008010175881246e-05,
    7: 9.985912010065804e-06,
    9: 7.760476221421996e-06,
    11: 6.347925466564256e-06,
    13: 5.3718437819703875e-06,
    15: 4.657141530315686e-06,
    17: 4.1113331388028225e-06,
    19: 3.6809632508835243e-06,
    21: 3.332982644307708e-06,
}
FIG12_VOLTAGES_V = {
    1: 0.8984080043164645,
    3: 1.4302553640528686,
    5: 1.7973431876836672,
    7: 2.0949098807272124,
    9: 2.351708263337942,
    11: 2.581832756170373,
    13: 2.791675591328607,
    15: 2.985613169410778,
    17: 3.166849205503819,
    19: 3.337781438393173,
    21: 3.5002395500891255,
}
FIG12_TARGET_CURRENT_A = 3.5447994652920155e-05
#: The default Fig. 12 drive curves: per gate level, the sha256 of the
#: swept solutions and the sweep's total Newton iterations.
FIG12_DRIVE_CURVES = {
    0.6: ("a4a0e8c9da877b6c6c196291471c91eb0b054f86f0cc761d41262ecd74fec020", 100),
    0.9: ("181bb73e22adc467bbcbad420a7a5ac1f631800efa6d5475ebb162ff255b1ce5", 90),
    1.2: ("29c1e89cbf9e75ca2796b3de1fa736f33ebc6f297a72377c855aeb846d408bdb", 89),
    1.5: ("076c2b3fc01fec85a072f524450e31ff1818e0fdb690ffe0df6c9ccfe105f43e", 87),
    1.8: ("c6373957d99781afbedbdf22a0c69548f2d829bab25ff5f428642a5caf66e9fc", 82),
}

#: The sixteen drain/source/float terminal configurations of the default
#: square HfO2 device: total drain current with the gate on and off.
TERMINAL_ON_CURRENTS_A = {
    "DSFF": 0.0006793096793950653,
    "SFDF": 0.0007444890543812178,
    "DSSS": 0.0011476327738083045,
    "SDSS": 0.0011476327738083045,
    "SSDS": 0.0011476327738083045,
    "SSSD": 0.0011476327738083045,
    "DDSS": 0.0016996341057135482,
    "SDDS": 0.001445448494759835,
    "DSDS": 0.001445448494759835,
    "DSSD": 0.001445448494759835,
    "SDSD": 0.001445448494759835,
    "SSDD": 0.0016996341057135482,
    "DDDS": 0.0011476327738083045,
    "SDDD": 0.0011476327738083045,
    "DDSD": 0.0011476327738083045,
    "DSDD": 0.0011476327738083045,
}
TERMINAL_OFF_CURRENTS_A = {
    "DSFF": 1.2028527344882522e-09,
    "SFDF": 1.2041803909203366e-09,
    "DSSS": 1.2110034044546872e-09,
    "SDSS": 1.2110034044546872e-09,
    "SSDS": 1.2110034044546872e-09,
    "SSSD": 1.2110034044546872e-09,
    "DDSS": 1.61630133993287e-09,
    "SDDS": 1.6138561389429395e-09,
    "DSDS": 1.6138561389429395e-09,
    "DSSD": 1.6138561389429395e-09,
    "SDSD": 1.6138561389429395e-09,
    "SSDD": 1.61630133993287e-09,
    "DDDS": 1.2110034044546872e-09,
    "SDDD": 1.2110034044546872e-09,
    "DDSD": 1.2110034044546872e-09,
    "DSDD": 1.2110034044546872e-09,
}

#: The XOR3 variability study at its default seed, per run configuration:
#: the sha256 of the per-trial metric columns (sorted metric names, one row
#: per metric, trials in order), the rise, fall and swing summaries as
#: ``(count, invalid, mean, std, minimum, maximum, percentiles)`` and the
#: functional yield.  ``trials=8`` is the lockstep batched march;
#: ``trials=4, adaptive=True`` runs every trial through the serial
#: adaptive march.
VARIABILITY_METRIC_KEYS = ["converged", "fall_time_s", "high_v", "low_v", "rise_time_s", "swing_v"]
VARIABILITY_STUDY_GOLDENS = {
    (8, False): {
        "sha256": "f6dda55005530021f2c2b1f9330f35dc87d1ad1b6f66c503235cfcf316ec8616",
        "rise_summary": (8, 0, 1.5201305674113556e-08, 3.687166862361377e-11, 1.5120801976069655e-08, 1.5244053055138438e-08, {1.0: 1.5124573141597447e-08, 5.0: 1.5139657803708617e-08, 25.0: 1.5191539076270658e-08, 50.0: 1.520816625925934e-08, 75.0: 1.5227318156425042e-08, 95.0: 1.5239658271360034e-08, 99.0: 1.5243174098382757e-08}),
        "fall_summary": (8, 0, 1.7398538246862408e-09, 7.6084451597005e-12, 1.7278719353800214e-09, 1.7517906403754707e-09, {1.0: 1.7279374574194845e-09, 5.0: 1.7281995455773371e-09, 25.0: 1.736944733952988e-09, 50.0: 1.7404182336382975e-09, 75.0: 1.7443453792600292e-09, 95.0: 1.7498021155049862e-09, 99.0: 1.7513929354013737e-09}),
        "swing_summary": (8, 0, 1.1322439383963108, 0.0008111188262470614, 1.1310712391683642, 1.133883991356548, {1.0: 1.131087294640249, 5.0: 1.1311515165277881, 25.0: 1.1318192784862071, 50.0: 1.1322615778518557, 75.0: 1.1325672912511457, 95.0: 1.133447172991736, 99.0: 1.1337966276835856}),
        "yield": 1.0,
    },
    (4, True): {
        "sha256": "33a6c72fdbeb62383c2dc849cb8feb1522ebde69d46a11a7d76819e80fc97c1b",
        "rise_summary": (4, 0, 1.4523805039459942e-08, 2.3077771397858008e-11, 1.4500179729128547e-08, 1.4549971255999703e-08, {1.0: 1.4500219561137882e-08, 5.0: 1.450037888917522e-08, 25.0: 1.4501175529361907e-08, 50.0: 1.452253458635576e-08, 75.0: 1.4545164096453794e-08, 95.0: 1.454900982409052e-08, 99.0: 1.4549778969617866e-08}),
        "fall_summary": (4, 0, 9.946337425764641e-10, 1.0199314363067012e-11, 9.803044756029553e-10, 1.0090977882536323e-09, {1.0: 9.807058497138256e-10, 5.0: 9.823113461573073e-10, 25.0: 9.90338828374715e-10, 50.0: 9.945663532246345e-10, 75.0: 9.988612674263835e-10, 95.0: 1.0070504840881826e-09, 99.0: 1.0086883274205425e-09}),
        "swing_summary": (4, 0, 1.1220661597221038, 0.001995342674872802, 1.1193932083682636, 1.1240785651152814, {1.0: 1.1194382403215557, 5.0: 1.119618368134724, 25.0: 1.1205190072005655, 50.0: 1.122396432702435, 75.0: 1.1239435852239734, 95.0: 1.1240515691370199, 99.0: 1.124073165919629}),
        "yield": 1.0,
    },
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


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


@pytest.mark.skipif(
    not scipy_available(), reason="the goldens were recorded on the sparse backends"
)
class TestModifiedNewtonGolden:
    @pytest.fixture(scope="class")
    def lattice(self, switch_model):
        bench = build_scalability_bench(REUSE_LATTICE_ROWS, model=switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="sparse")
        assert nominal.converged
        return engine, nominal.solution + 0.05

    def test_serial_dc(self, lattice):
        engine, guess = lattice
        point = engine.solve_dc(
            initial_guess=guess, refresh=False, solver="sparse", newton="reuse"
        )
        info = point.convergence_info
        assert point.converged
        assert (
            point.iterations,
            info.factorizations,
            info.factorization_reuses,
        ) == REUSE_SERIAL_COUNTS
        assert _sha256(point.solution) == REUSE_SERIAL_SHA256

    def test_stacked_dc(self, lattice):
        engine, guess = lattice
        montecarlo = MonteCarloEngine(
            engine.circuit, {"mos_vth": Gaussian(sigma=0.002)}, seed=29
        )
        points = engine.solve_dc_batched(
            montecarlo.sample_stacked_overlays(REUSE_STACKED_TRIALS),
            trials=REUSE_STACKED_TRIALS,
            initial_guess=guess,
            refresh=False,
            solver="sparse-batched",
            newton="reuse",
        )
        assert points.all_converged
        assert (
            int(points.iterations.sum()),
            points.factorizations,
            points.factorization_reuses,
        ) == REUSE_STACKED_COUNTS
        assert _sha256(points.solutions) == REUSE_STACKED_SHA256

    def test_transient_march(self, switch_model):
        engine = get_engine(build_fig11_bench(model=switch_model).circuit)
        result = engine.solve_transient(200e-9, 1e-9, solver="sparse", newton="reuse")
        info = result.convergence_info
        assert result.converged
        assert (
            info.newton_iterations,
            info.factorizations,
            info.factorization_reuses,
        ) == REUSE_TRANSIENT_COUNTS
        assert _sha256(result.solutions) == REUSE_TRANSIENT_SHA256


class TestFig9Golden:
    def test_pair_currents(self):
        result = run_fig9()
        assert result.pair_currents_on == FIG9_CURRENTS_ON_A
        assert result.pair_currents_off == FIG9_CURRENTS_OFF_A


class TestFig12Golden:
    def test_series_switch_study(self):
        result = run_fig12()
        assert result.currents_a == FIG12_CURRENTS_A
        assert result.voltages_v == FIG12_VOLTAGES_V
        assert result.target_current_a == FIG12_TARGET_CURRENT_A

    def test_drive_curves(self):
        curves = run_fig12_drive_curves()
        assert list(curves) == list(FIG12_DRIVE_CURVES)
        for gate_v, result in curves.items():
            digest, iterations = FIG12_DRIVE_CURVES[gate_v]
            assert _sha256(result.arrays["solutions"]) == digest
            assert result.newton_iterations == iterations


class TestTerminalConfigurationGolden:
    def test_on_and_off_currents(self):
        result = run_terminal_configuration_sweep()
        assert result.on_currents_a == TERMINAL_ON_CURRENTS_A
        assert result.off_currents_a == TERMINAL_OFF_CURRENTS_A


class TestVariabilityStudyGolden:
    @pytest.mark.parametrize("trials, adaptive", list(VARIABILITY_STUDY_GOLDENS))
    def test_metrics_summaries_and_yield(self, trials, adaptive):
        golden = VARIABILITY_STUDY_GOLDENS[(trials, adaptive)]
        result = run_variability_xor3(trials=trials, adaptive=adaptive)
        records = result.montecarlo.records
        assert sorted(records[0]) == VARIABILITY_METRIC_KEYS
        columns = np.array(
            [[record[key] for record in records] for key in VARIABILITY_METRIC_KEYS]
        )
        assert _sha256(columns) == golden["sha256"]
        for name in ("rise_summary", "fall_summary", "swing_summary"):
            summary = getattr(result, name)
            assert (
                summary.count,
                summary.invalid,
                summary.mean,
                summary.std,
                summary.minimum,
                summary.maximum,
                summary.percentiles,
            ) == golden[name]
        assert result.functional_yield() == golden["yield"]
