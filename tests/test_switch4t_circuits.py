"""Unit tests for the Fig. 9 switch model, lattice netlists and series chains."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.series_chain import build_series_chain, current_versus_chain_length
from repro.circuits.sizing import (
    DEFAULT_SQUARE_HFO2_FIT,
    default_switch_model,
    extract_square_device_parameters,
    switch_model_from_parameters,
    switch_model_from_spec,
)
from repro.circuits.testbench import (
    InputSequence,
    all_input_vectors,
    gray_code_vectors,
    input_waveforms,
)
from repro.core.evaluation import evaluate_lattice
from repro.core.lattice import Lattice
from repro.core.library import xor3_lattice_3x3
from repro.spice import Circuit, MOSFET, VoltageSource, get_engine
from repro.spice.elements.switch4t import (
    FourTerminalSwitchModel,
    TYPE_A_PAIRS,
    TYPE_B_PAIRS,
    add_four_terminal_switch,
)
from repro.spice.netlist import GROUND
from repro.spice.solvers import scipy_available

#: The TCAD-substitute extraction path needs the scipy extra; these cases
#: skip on a scipy-free install (the parametric model path stays tested).
requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A Fig. 11 DC operating point through the default model, in a fresh
#: interpreter so no other test's import of scipy can hide one on this path.
_FIG11_DCOP_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.api import CircuitSpec, DCOp, Session

spec = DCOp(circuit=CircuitSpec(
    "repro.experiments.fig11_xor3_transient:build_fig11_bench", params={{}}
))
assert Session(store=None).run(spec).converged
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestSwitchModelConstruction:
    def test_from_process_type_lengths(self, switch_model):
        assert switch_model.type_a.length_m == pytest.approx(0.35e-6)
        assert switch_model.type_b.length_m == pytest.approx(0.50e-6)
        assert switch_model.type_a.width_m == switch_model.type_b.width_m

    def test_type_a_stronger_than_type_b(self, switch_model):
        assert switch_model.type_a.beta > switch_model.type_b.beta

    def test_from_fit(self):
        from repro.fitting.level1 import Level1Parameters

        fit = Level1Parameters(kp_a_per_v2=2e-5, vth_v=0.2, lambda_per_v=0.01)
        model = FourTerminalSwitchModel.from_fit(fit)
        assert model.type_a.kp_a_per_v2 == 2e-5
        assert model.type_b.vth_v == 0.2

    def test_pairs_cover_all_six(self):
        pairs = set(TYPE_A_PAIRS) | set(TYPE_B_PAIRS)
        assert len(pairs) == 6

    def test_expansion_creates_six_transistors(self, switch_model):
        circuit = Circuit()
        VoltageSource(circuit, "vg", "g", "0", 1.2)
        transistors = add_four_terminal_switch(
            circuit, "sw", {"T1": "a", "T2": "b", "T3": "c", "T4": "d"}, "g", switch_model
        )
        assert len(transistors) == 6
        mosfets = [e for e in circuit.elements if isinstance(e, MOSFET)]
        assert len(mosfets) == 6

    def test_expansion_adds_terminal_capacitors(self, switch_model):
        circuit = Circuit()
        VoltageSource(circuit, "vg", "g", "0", 1.2)
        add_four_terminal_switch(
            circuit, "sw", {"T1": "a", "T2": "b", "T3": "c", "T4": "d"}, "g", switch_model,
            add_terminal_capacitors=True,
        )
        from repro.spice.elements.capacitor import Capacitor

        capacitors = [e for e in circuit.elements if isinstance(e, Capacitor)]
        assert len(capacitors) == 4

    def test_missing_terminal_raises(self, switch_model):
        circuit = Circuit()
        with pytest.raises(ValueError):
            add_four_terminal_switch(circuit, "sw", {"T1": "a", "T2": "b"}, "g", switch_model)


class TestSwitchBehaviour:
    def _pair_current(self, switch_model, pair, gate_v, bias_v=1.2):
        circuit = Circuit()
        VoltageSource(circuit, "vb", "drive", GROUND, bias_v)
        VoltageSource(circuit, "vg", "gate", GROUND, gate_v)
        nodes = {name: f"n_{name}" for name in ("T1", "T2", "T3", "T4")}
        nodes[pair[0]] = "drive"
        nodes[pair[1]] = GROUND
        add_four_terminal_switch(circuit, "sw", nodes, "gate", switch_model, add_terminal_capacitors=False)
        return abs(get_engine(circuit).solve_dc().source_current("vb"))

    def test_all_pairs_conduct_when_on(self, switch_model):
        for pair in list(TYPE_A_PAIRS) + list(TYPE_B_PAIRS):
            assert self._pair_current(switch_model, pair, gate_v=1.2) > 1e-6

    def test_all_pairs_blocked_when_off(self, switch_model):
        for pair in list(TYPE_A_PAIRS) + list(TYPE_B_PAIRS):
            assert self._pair_current(switch_model, pair, gate_v=0.0) < 1e-7

    def test_pair_current_symmetry(self, switch_model):
        currents = [
            self._pair_current(switch_model, pair, gate_v=1.2)
            for pair in list(TYPE_A_PAIRS) + list(TYPE_B_PAIRS)
        ]
        spread = (max(currents) - min(currents)) / np.mean(currents)
        assert spread < 0.6  # same order of magnitude across all six pairs


class TestSizingExtraction:
    @requires_scipy
    def test_extraction_quality(self):
        fit = extract_square_device_parameters(points=21)
        assert fit.success
        assert fit.relative_rms_error < 0.2
        assert 0.0 < fit.parameters.vth_v < 0.5
        assert fit.parameters.kp_a_per_v2 > 1e-6

    @requires_scipy
    def test_switch_model_from_spec(self):
        model = switch_model_from_spec(points=15)
        assert model.type_a.vth_v == model.type_b.vth_v
        assert model.type_a.length_m < model.type_b.length_m

    @requires_scipy
    def test_pinned_default_fit_is_the_extraction_output(self):
        # Float equality is bitwise here: no field is NaN or a signed zero.
        fit = extract_square_device_parameters()
        assert fit.parameters == DEFAULT_SQUARE_HFO2_FIT
        assert default_switch_model() == FourTerminalSwitchModel.from_fit(fit.parameters)

    def test_default_model_circuit_run_imports_no_scipy(self):
        completed = subprocess.run(
            [sys.executable, "-c", _FIG11_DCOP_SCRIPT.format(src=SRC_DIR)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_switch_model_from_parameters(self):
        model = switch_model_from_parameters(1e-5, 0.3, 0.02, terminal_capacitance_f=2e-15)
        assert model.terminal_capacitance_f == 2e-15


class TestTestbench:
    def test_all_input_vectors_order(self):
        vectors = all_input_vectors(("a", "b"))
        assert vectors[0] == {"a": False, "b": False}
        assert vectors[1] == {"a": True, "b": False}
        assert vectors[3] == {"a": True, "b": True}

    def test_gray_code_single_bit_changes(self):
        vectors = gray_code_vectors(("a", "b", "c"))
        for previous, current in zip(vectors, vectors[1:]):
            flips = sum(previous[v] != current[v] for v in previous)
            assert flips == 1

    def test_exhaustive_sequence(self):
        sequence = InputSequence.exhaustive(("a", "b"), step_duration_s=10e-9)
        assert len(sequence.vectors) == 4
        assert sequence.total_duration_s == pytest.approx(40e-9)

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            InputSequence(variables=(), vectors=((True,),))
        with pytest.raises(ValueError):
            InputSequence(variables=("a",), vectors=((True, False),))
        with pytest.raises(ValueError):
            InputSequence(variables=("a",), vectors=((True,),), step_duration_s=1e-9, transition_s=2e-9)

    def test_from_assignments_missing_variable(self):
        with pytest.raises(ValueError):
            InputSequence.from_assignments(("a", "b"), [{"a": True}])

    def test_sample_window_inside_step(self):
        sequence = InputSequence.exhaustive(("a",), step_duration_s=10e-9)
        assert 10e-9 < sequence.sample_window(1) <= 20e-9

    def test_input_waveforms_complementary(self):
        sequence = InputSequence.exhaustive(("a",), step_duration_s=10e-9, high_level_v=1.2)
        waveforms = input_waveforms(sequence)
        t_sample = sequence.sample_window(1)
        assert waveforms["a"].value(t_sample) == pytest.approx(1.2)
        assert waveforms["a'"].value(t_sample) == pytest.approx(0.0)
        t_sample0 = sequence.sample_window(0)
        assert waveforms["a"].value(t_sample0) == pytest.approx(0.0)
        assert waveforms["a'"].value(t_sample0) == pytest.approx(1.2)


class TestLatticeCircuits:
    def test_static_dc_levels_for_all_inputs(self, switch_model, xor3_3x3):
        import itertools

        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip("abc", bits))
            bench = build_lattice_circuit(xor3_3x3, model=switch_model, static_assignment=assignment)
            op = get_engine(bench.circuit).solve_dc()
            assert op.converged
            expect_high = bench.expected_output_level(assignment)
            voltage = op.voltage(bench.output_node)
            if expect_high:
                assert voltage > 1.0
            else:
                assert voltage < 0.3

    def test_constant_one_cell_ties_gate_to_supply(self, switch_model):
        lattice = Lattice.from_strings(["1", "a"])
        bench = build_lattice_circuit(lattice, model=switch_model, static_assignment={"a": True})
        op = get_engine(bench.circuit).solve_dc()
        assert op.voltage(bench.output_node) < 0.3  # path of constant-1 and ON switch pulls down

    def test_constant_zero_cells_omitted(self, switch_model):
        lattice = Lattice.from_strings(["a 0", "b 0"])
        bench = build_lattice_circuit(lattice, model=switch_model, static_assignment={"a": True, "b": True})
        # Only two switches instantiated -> 12 MOSFETs.
        mosfets = [e for e in bench.circuit.elements if isinstance(e, MOSFET)]
        assert len(mosfets) == 12

    def test_both_sequence_and_static_rejected(self, switch_model, xor3_3x3):
        sequence = InputSequence.exhaustive(("a", "b", "c"))
        with pytest.raises(ValueError):
            build_lattice_circuit(
                xor3_3x3, model=switch_model, input_sequence=sequence, static_assignment={"a": True, "b": True, "c": True}
            )

    def test_static_assignment_missing_input(self, switch_model, xor3_3x3):
        with pytest.raises(ValueError):
            build_lattice_circuit(xor3_3x3, model=switch_model, static_assignment={"a": True})

    def test_gate_sources_per_literal(self, switch_model, xor3_3x3):
        bench = build_lattice_circuit(xor3_3x3, model=switch_model,
                                      static_assignment={"a": False, "b": False, "c": False})
        assert set(bench.gate_sources) == {"a", "a'", "b", "b'", "c", "c'"}

    def test_transient_small_lattice(self, switch_model):
        lattice = Lattice.from_strings(["a", "b"])  # AND gate pull-down
        sequence = InputSequence.exhaustive(("a", "b"), step_duration_s=50e-9)
        bench = build_lattice_circuit(lattice, model=switch_model, input_sequence=sequence)
        result = get_engine(bench.circuit).solve_transient(sequence.total_duration_s, 1e-9)
        # Output is NAND of the inputs.
        for step in range(4):
            assignment = sequence.assignment_at_step(step)
            value = result.sample_voltage(bench.output_node, sequence.sample_window(step))
            expect_high = not (assignment["a"] and assignment["b"])
            assert (value > 0.6) == expect_high


class TestSeriesChains:
    def test_single_switch_current(self, switch_model):
        chain = build_series_chain(1, model=switch_model)
        current = chain.chain_current(1.2, 1.2)
        assert 1e-6 < current < 1e-3

    def test_current_decreases_with_length(self, switch_model):
        currents = current_versus_chain_length([1, 3, 7], model=switch_model)
        assert currents[1] > currents[3] > currents[7] > 0.0

    def test_current_roughly_inverse_in_length(self, switch_model):
        currents = current_versus_chain_length([2, 8], model=switch_model)
        ratio = currents[2] / currents[8]
        assert 2.0 < ratio < 8.0

    def test_off_gate_blocks_chain(self, switch_model):
        chain = build_series_chain(3, model=switch_model)
        assert chain.chain_current(1.2, gate_v=0.0) < 1e-7

    def test_voltage_for_current_increases_with_length(self, switch_model):
        short = build_series_chain(2, model=switch_model)
        long = build_series_chain(8, model=switch_model)
        target = 5e-6
        assert long.voltage_for_current(target, points=31) > short.voltage_for_current(target, points=31)

    def test_voltage_for_current_fixed_gate_mode(self, switch_model):
        chain = build_series_chain(2, model=switch_model)
        value = chain.voltage_for_current(5e-6, gate_v=1.2, tie_gate_to_drive=False, points=31)
        assert 0.0 < value < 6.0

    def test_fixed_gate_mode_requires_gate_value(self, switch_model):
        chain = build_series_chain(2, model=switch_model)
        with pytest.raises(ValueError):
            chain.voltage_for_current(5e-6, tie_gate_to_drive=False)

    def test_invalid_length(self, switch_model):
        with pytest.raises(ValueError):
            build_series_chain(0, model=switch_model)
