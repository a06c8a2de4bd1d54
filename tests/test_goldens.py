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
from repro.experiments import (
    run_device_iv,
    run_fig3,
    run_fig8,
    run_fig10,
    run_table1,
    run_table2,
)
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
from repro.spice import _rowblocks
from repro.spice.engine import CompiledCircuit, get_engine
from repro.spice.montecarlo import Gaussian, MonteCarloEngine
from repro.spice.solvers import DenseSolver, SparseSolver, scipy_available

#: The TCAD field solve and the Section IV extraction need the scipy extra;
#: the circuit goldens run on a NumPy-only install through the pinned fit.
requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)

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
#: Newton rounds of the same run, the DC warm start's included: one
#: factorization, one assembly and one linear solve each.
FIG11_ROUNDS = 2793
FIG11_RISE_TIME_S = 1.517710739387042e-08
FIG11_FALL_TIME_S = 1.7431238086836106e-09
#: Bitwise on one host, with room for last-bit differences between BLAS
#: builds.
FIG11_EDGE_RTOL = 1e-9

#: Serial 200 ns, 1 ns-step marches of the default Fig. 11 bench on the
#: default (dense) backend that the full-figure golden does not cover,
#: keyed by ``(integration, adaptive, use_initial_conditions)``: the sha256
#: of the solution rows and of the time axis, then (Newton iterations,
#: factorizations, accepted steps, rejected steps) of the whole march (the
#: warm-start DC included).
FIG11_MARCH_STOP_S = 200e-9
FIG11_MARCH_STEP_S = 1e-9
FIG11_FIXED_TIME_SHA256 = "6b9f333c1846ee83208602172d890ae595902a7feaf75655ab3c7219af3b7fe6"
FIG11_MARCH_GOLDENS = {
    ("trap", False, False): (
        "028776480649800c6748fe50bc1da0699a8e6bdc137ebf7227559f9559aa29b2",
        FIG11_FIXED_TIME_SHA256,
        (428, 490, 200, 0),
    ),
    ("be", True, False): (
        "5d0145749ede03a0e008073e233195ba310a0ab73c457f3bf39e305e8a0fab5f",
        "4147db153928c9f1eac5b7bc9c782972c35af97eae03de37493ecce6b3ab0db9",
        (514, 576, 130, 19),
    ),
    ("trap", True, False): (
        "13222c0ce67f4ba82d554f4e1bc7d09f9400acf46694a0de21a1e915bb77788b",
        "56562c6819fc58e01230b79788d3262f65e0532a5eae2aceef90b1ac1ea5f371",
        (481, 543, 136, 16),
    ),
    ("be", False, True): (
        "57fdddf69841934620b318aafc539179fbc763f86c7d3c44322a9804bf5b5117",
        FIG11_FIXED_TIME_SHA256,
        (662, 662, 200, 0),
    ),
}

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

#: Table I (default 7x7 grid): products of the m x n lattice function, one
#: tuple per row count m = 2..7, columns n = 2..7.
TABLE1_PRODUCTS = {
    2: (2, 3, 4, 5, 6, 7),
    3: (4, 9, 16, 25, 36, 49),
    4: (6, 17, 36, 67, 118, 203),
    5: (10, 37, 94, 205, 436, 957),
    6: (16, 77, 236, 621, 1668, 4883),
    7: (26, 163, 602, 1905, 6562, 26317),
}

#: Table II: the sha256 of the device rows (JSON, sorted keys) and, per
#: device/gate combination, (threshold, oxide capacitance, flat-band
#: voltage, subthreshold swing) of the derived electrostatics.
TABLE2_ROWS_SHA256 = "bd5147d47089ae19da54c592774c25ddfc45e07536fa648e52ca5c67a94460c4"
TABLE2_ELECTROSTATICS = {
    "square/HfO2": (0.1902952645032266, 0.007378489844000001, -0.9, 0.06757707864917605),
    "square/SiO2": (1.5803267661050966, 0.0011510444156640001, -0.9, 0.11113315572235946),
    "cross/HfO2": (0.26906294695058025, 0.007378489844000001, -0.9, 0.06757707864917605),
    "cross/SiO2": (2.085247807434287, 0.0011510444156640001, -0.9, 0.11113315572235946),
    "junctionless/HfO2": (-0.8436015067361657, 0.07378489844000001, -0.1, 0.0654790722655649),
    "junctionless/SiO2": (-3.1931843042269796, 0.011510444156640001, -0.1, 0.0654790722655649),
}

#: Fig. 3: each XOR3 realization's layout and switch count (all correct).
FIG3_LATTICES = {
    "3x4 (Fig. 3a)": (["a  a  a' a'", "b  b' b  b'", "c  c' c' c"], 12),
    "3x3 (Fig. 3b)": (["b' c  b", "a  1  a'", "b  c' b'"], 9),
    "dual-product baseline": (["a' a' b' c", "a' a' c' b", "b' c' a  a", "c  b  a  a"], 16),
}

#: Figs. 5-7, per device/gate combination: (extracted threshold, on
#: current, off current, transfer-curve on/off ratio, peak transconductance,
#: analytic threshold, simulator on/off ratio) and the sha256 of the
#: linear, saturation and output drain currents stacked in that order.
DEVICE_IV_GOLDENS = {
    ("square", "HfO2"): (
        (0.19479508604273957, 0.0011476327738083045, 1.2110034044546872e-09, 947670.972341388, 7.970296781138399e-07, 0.1902952645032266, 947670.972341388),
        "90433abe468a2ffdfc7e4ef744cf7144ee45bad1fc71f64460184dfbf02527bd",
    ),
    ("square", "SiO2"): (
        (1.5822288098962662, 9.0831408870764e-05, 1.2000000000000434e-09, 75692.84072563393, 1.2436873501162038e-07, 1.5803267661050966, 75692.84072563393),
        "0cec8dfb6f48332df3f213cf2f6f2c76c9759e32ca58299999dc58a371fe37a2",
    ),
    ("cross", "HfO2"): (
        (0.27356926196757786, 0.00035114786860218107, 3.902472887267465e-10, 899808.6053278308, 2.62255466115054e-07, 0.26906294695058025, 899808.6053278308),
        "b0a149b6cd3a25c39cb90584af86446a5f843f4261fb6acdb998d8ca1ed4afbc",
    ),
    ("cross", "SiO2"): (
        (2.0871885929483787, 2.0848791551629937e-05, 3.9e-10, 53458.439875974196, 4.092119844559053e-08, 2.085247807434287, 53458.439875974196),
        "0b2e6c0a822315682ada86937fae31433d3af594b2c66b598cfad50ebd1ab081",
    ),
    ("junctionless", "HfO2"): (
        (-0.8431221525391684, 6.185243674096424e-05, 1.3436538448287398e-06, 46.03301436527937, 3.4002865889605693e-08, -0.8436015067361657, 103087394.56825264),
        "985396a9a815a0fdae41ff3469508bef62ad9d91d08fde920f9269b8c29c50bb",
    ),
    ("junctionless", "SiO2"): (
        (-3.1976013885546575, 1.6682487625903503e-05, 3.0015426719665225e-06, 5.557971166531385, 5.327738842065459e-09, -3.1931843042269796, 27804146.043171618),
        "11762f88fb330636dc7ea97a86d756cadcba80e6edb703f4524bcccbe468e827",
    ),
}

#: Fig. 8 (default 61x61 mesh), per device kind: source-current spread,
#: peak/mean crowding and the sha256 of the potential, jx and jy maps.
FIG8_GOLDENS = {
    "square": (0.8803770183542775, 21.450600077019736, "4ea4b51cc0c32c26a940f77237258d47aefeb4c197884de2a6445b484b916e44"),
    "cross": (0.3650349711855101, 11.273432346415143, "55f085ad580f03fcc0b60592563e3639c2e4e260a0ca11622e07797cb3f00f7e"),
    "junctionless": (0.9469991056811711, 21.61646374103973, "a2806cadf182d69d5abe92b17c282c6a176dc7dd8ccae18061a74d66506ad8f4"),
}

#: Fig. 10 (default 41 points): per fit, (Kp, Vth, lambda, relative RMS
#: error), and the sha256 of the fitted Id-Vd data (vds and ids stacked).
FIG10_FITS = {
    "output_fit": (3.952752487473446e-05, 0.1837771411617458, 0.05032182053257095, 1.5005865807741133e-05),
    "combined_fit": (3.951260209512717e-05, 0.1834469266835011, 0.05043953977898636, 0.0002952851993409713),
}
FIG10_DATA_SHA256 = "0a60a63f68546684d5f6f0025717f57560bcc79771902c76fdc2c687e4eb5efe"

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


@pytest.fixture(scope="module")
def fig11_engine():
    return get_engine(build_fig11_bench().circuit)


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


def count_calls(monkeypatch, cls, method):
    """Count the calls of ``cls.method`` by wrapping the class attribute,
    the way ``perfbench/tracing.py`` wraps the layers it times."""
    calls = []
    original = cls.__dict__[method]

    def counted(*args, **kwargs):
        calls.append(method)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    return calls


class TestNewtonCallStory:
    """Every Newton round goes through the named entry points that the
    benchmark tracer counts: exactly one assembly and one solve per round,
    so no hoisting may bypass them."""

    def test_fig11_march(self, monkeypatch):
        counted = {
            method: count_calls(monkeypatch, CompiledCircuit, method)
            for method in ("assemble", "assemble_sparse", "assemble_batched")
        }
        solves = count_calls(monkeypatch, DenseSolver, "solve")
        spec = Transient(circuit=CircuitSpec(FIG11_FACTORY, params={}), timestep_s=1e-9)
        result = Session(store=None).run(spec)
        assert (result.newton_iterations, result.factorizations) == (
            FIG11_NEWTON_ITERATIONS,
            FIG11_ROUNDS,
        )
        assert len(counted["assemble"]) == len(solves) == FIG11_ROUNDS
        assert counted["assemble_sparse"] == counted["assemble_batched"] == []

    @requires_scipy
    def test_lattice_dc(self, monkeypatch):
        # On one usable CPU the gmin ladder runs in this process, not in a
        # forked child, so all its rounds are counted here.
        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 1)
        assemblies = count_calls(monkeypatch, CompiledCircuit, "assemble_sparse")
        dense = count_calls(monkeypatch, CompiledCircuit, "assemble")
        solves = count_calls(monkeypatch, SparseSolver, "solve_pattern")
        get_engine(build_scalability_bench(rows=LATTICE_ROWS).circuit).solve_dc()
        assert len(assemblies) == len(solves) == LATTICE_FACTORIZATIONS
        assert dense == []


class TestFig11MarchGolden:
    @pytest.mark.parametrize(
        "integration, adaptive, use_initial_conditions", list(FIG11_MARCH_GOLDENS)
    )
    def test_serial_march(self, fig11_engine, integration, adaptive, use_initial_conditions):
        solutions_sha256, time_sha256, counts = FIG11_MARCH_GOLDENS[
            (integration, adaptive, use_initial_conditions)
        ]
        result = fig11_engine.solve_transient(
            FIG11_MARCH_STOP_S,
            FIG11_MARCH_STEP_S,
            integration=integration,
            adaptive=adaptive,
            use_initial_conditions=use_initial_conditions,
        )
        info = result.convergence_info
        assert result.converged
        assert info.strategy == ("adaptive" if adaptive else "fixed-step")
        assert (
            info.newton_iterations,
            info.factorizations,
            info.accepted_steps,
            info.rejected_steps,
        ) == counts
        assert _sha256(result.solutions) == solutions_sha256
        assert _sha256(result.time_s) == time_sha256


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

    def test_solver_none_is_the_auto_story(self, lattice_dc):
        # solver=None hashes like the default "auto", so it must compute the
        # same pinned story, bit for bit, not a dense LAPACK one.
        spec = DCOp(
            circuit=CircuitSpec(LATTICE_FACTORY, params={"rows": LATTICE_ROWS}),
            solver=None,
        )
        assert spec.content_hash == lattice_dc.spec_hash
        result = Session(store=None).run(spec)
        assert result.scalars["strategy"] == LATTICE_STRATEGY
        assert result.newton_iterations == LATTICE_NEWTON_ITERATIONS
        assert result.factorizations == LATTICE_FACTORIZATIONS
        assert _sha256(result.arrays["solution"]) == _sha256(lattice_dc.arrays["solution"])


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


@requires_scipy
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


class TestTable1Golden:
    def test_product_counts(self):
        result = run_table1()
        assert result.computed == {
            (rows, cols): count
            for rows, counts in TABLE1_PRODUCTS.items()
            for cols, count in enumerate(counts, 2)
        }


class TestTable2Golden:
    def test_rows_and_electrostatics(self):
        result = run_table2()
        rows = json.dumps(result.rows, sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == TABLE2_ROWS_SHA256
        assert {
            name: (
                es.threshold_v,
                es.oxide_capacitance_f_per_m2,
                es.flat_band_v,
                es.subthreshold_swing_v_per_decade,
            )
            for name, es in result.electrostatics.items()
        } == TABLE2_ELECTROSTATICS


class TestFig3Golden:
    def test_realizations(self):
        result = run_fig3()
        assert result.correct == {name: True for name in FIG3_LATTICES}
        assert {
            name: (lattice.to_strings(), result.switch_counts[name])
            for name, lattice in result.lattices.items()
        } == FIG3_LATTICES


class TestDeviceIVGolden:
    @pytest.mark.parametrize("kind, gate_material", list(DEVICE_IV_GOLDENS))
    def test_figures_of_merit_and_curves(self, kind, gate_material):
        merits, digest = DEVICE_IV_GOLDENS[(kind, gate_material)]
        result = run_device_iv(kind, gate_material)
        summary = result.summary
        assert (
            summary.threshold_v,
            summary.on_current_a,
            summary.off_current_a,
            summary.on_off_ratio,
            summary.max_transconductance_s,
            result.analytic_threshold_v,
            result.on_off_ratio,
        ) == merits
        curves = np.stack(
            [
                result.linear.drain_current,
                result.saturation.drain_current,
                result.output.drain_current,
            ]
        )
        assert _sha256(curves) == digest


@requires_scipy
class TestFig8Golden:
    def test_profiles(self):
        result = run_fig8()
        assert {
            kind.value: (
                result.source_uniformity[kind],
                result.crowding[kind],
                _sha256(np.stack([field.potential, field.jx, field.jy])),
            )
            for kind, field in result.fields.items()
        } == FIG8_GOLDENS


@requires_scipy
class TestFig10Golden:
    def test_fits(self):
        result = run_fig10()
        for name, golden in FIG10_FITS.items():
            fit = getattr(result, name)
            parameters = fit.parameters
            assert (
                parameters.kp_a_per_v2,
                parameters.vth_v,
                parameters.lambda_per_v,
                fit.relative_rms_error,
            ) == golden
        assert _sha256(np.stack([result.vds, result.ids])) == FIG10_DATA_SHA256
