"""Tests for the complementary-lattice extension (Section VI-A of the paper)."""

import itertools

import pytest

from repro.circuits.complementary import (
    build_complementary_lattice_circuit,
    complement_lattice,
)
from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.testbench import InputSequence
from repro.core.evaluation import evaluate_lattice, implements, lattice_function
from repro.core.lattice import Lattice
from repro.spice import get_engine


class TestComplementLattice:
    def test_complement_of_and_is_nand(self):
        lattice = Lattice(2, 1, [["a"], ["b"]])
        complement = complement_lattice(lattice)
        target = ~lattice_function(lattice)
        assert implements(complement, target)

    def test_complement_of_xor3(self, xor3_3x3, xor3):
        complement = complement_lattice(xor3_3x3)
        assert implements(complement, ~xor3)

    def test_double_complement_same_function(self, xor3_3x3):
        twice = complement_lattice(complement_lattice(xor3_3x3))
        assert lattice_function(twice, ("a", "b", "c")) == lattice_function(xor3_3x3, ("a", "b", "c"))


class TestComplementaryCircuitDC:
    @pytest.fixture(scope="class")
    def and2_bench(self, switch_model):
        pulldown = Lattice(2, 1, [["a"], ["b"]])  # output = NAND(a, b)
        return pulldown, switch_model

    def test_logic_levels_all_inputs(self, and2_bench):
        pulldown, model = and2_bench
        for bits in itertools.product([False, True], repeat=2):
            assignment = dict(zip("ab", bits))
            bench = build_complementary_lattice_circuit(
                pulldown, model=model, static_assignment=assignment
            )
            op = get_engine(bench.circuit).solve_dc()
            assert op.converged
            voltage = op.voltage(bench.output_node)
            if bench.expected_output_level(assignment):
                # n-type pull-up lattice: a degraded but clearly-high level.
                assert voltage > 0.7
            else:
                assert voltage < 0.2

    def test_static_supply_current_negligible(self, and2_bench, switch_model):
        pulldown, model = and2_bench
        resistive_currents = []
        complementary_currents = []
        for bits in itertools.product([False, True], repeat=2):
            assignment = dict(zip("ab", bits))
            complementary = build_complementary_lattice_circuit(
                pulldown, model=model, static_assignment=assignment
            )
            op = get_engine(complementary.circuit).solve_dc()
            complementary_currents.append(abs(op.source_current("vdd_supply")))

            resistive = build_lattice_circuit(pulldown, model=model, static_assignment=assignment)
            op_r = get_engine(resistive.circuit).solve_dc()
            resistive_currents.append(abs(op_r.source_current("vdd_supply")))

        # The headline benefit claimed in Section VI-A: the complementary
        # structure has (almost) no static supply current, while the resistive
        # pull-up draws microamps whenever the output is low.
        assert max(complementary_currents) < 0.05 * max(resistive_currents)

    def test_xor3_complementary_dc(self, switch_model, xor3_3x3):
        assignment = {"a": True, "b": False, "c": False}  # XOR3 = 1 -> output low
        bench = build_complementary_lattice_circuit(
            xor3_3x3, model=switch_model, static_assignment=assignment
        )
        op = get_engine(bench.circuit).solve_dc()
        assert op.converged
        assert op.voltage(bench.output_node) < 0.2

    def test_validation(self, switch_model, xor3_3x3):
        sequence = InputSequence.exhaustive(("a", "b", "c"))
        with pytest.raises(ValueError):
            build_complementary_lattice_circuit(
                xor3_3x3,
                model=switch_model,
                input_sequence=sequence,
                static_assignment={"a": True, "b": True, "c": True},
            )

    def test_pullup_with_extra_inputs_rejected(self, switch_model):
        pulldown = Lattice(1, 1, [["a"]])
        pullup = Lattice(1, 1, [["z'"]])
        with pytest.raises(ValueError):
            build_complementary_lattice_circuit(pulldown, pullup=pullup, model=switch_model)


class TestComplementaryCircuitTransient:
    def test_transient_faster_rise_than_resistive(self, switch_model):
        from repro.analysis.waveform_metrics import edge_times, steady_state_levels

        pulldown = Lattice(2, 1, [["a"], ["b"]])
        # Drive the output low, then high, then low again so both circuits
        # show one complete rising edge.
        sequence = InputSequence.from_assignments(
            ("a", "b"),
            [
                {"a": True, "b": True},
                {"a": False, "b": False},
                {"a": True, "b": True},
            ],
            step_duration_s=60e-9,
        )

        complementary = build_complementary_lattice_circuit(
            pulldown, model=switch_model, input_sequence=sequence
        )
        resistive = build_lattice_circuit(pulldown, model=switch_model, input_sequence=sequence)

        result_c = get_engine(complementary.circuit).solve_transient(
            sequence.total_duration_s, 1e-9
        )
        result_r = get_engine(resistive.circuit).solve_transient(
            sequence.total_duration_s, 1e-9
        )

        def first_rise(result, node):
            waveform = result.voltage(node)
            levels = steady_state_levels(result.time_s, waveform)
            rises, _ = edge_times(result.time_s, waveform, levels)
            return rises[0] if rises else float("inf")

        rise_complementary = first_rise(result_c, complementary.output_node)
        rise_resistive = first_rise(result_r, resistive.output_node)
        # Section VI-A: replacing the 500 kOhm pull-up removes the dominant
        # rise-time penalty.
        assert rise_complementary < rise_resistive

    def test_transient_logic_correct(self, switch_model):
        pulldown = Lattice(2, 1, [["a"], ["b"]])
        sequence = InputSequence.exhaustive(("a", "b"), step_duration_s=60e-9)
        bench = build_complementary_lattice_circuit(
            pulldown, model=switch_model, input_sequence=sequence
        )
        result = get_engine(bench.circuit).solve_transient(sequence.total_duration_s, 1e-9)
        for step in range(len(sequence.vectors)):
            assignment = sequence.assignment_at_step(step)
            voltage = result.sample_voltage(bench.output_node, sequence.sample_window(step))
            expect_high = not evaluate_lattice(pulldown, assignment)
            assert (voltage > 0.6) == expect_high
