"""Ablation: resistive pull-up (Section V) vs complementary lattice pull-up (Section VI-A).

The paper's conclusion argues that a lattice pull-up network would make the
static power consumption almost zero and remove the rise-time penalty of the
500 kOhm resistor.  This bench builds both variants of the XOR3 circuit and
compares static supply current, output levels and edge speeds.
"""

import itertools

from _bench_utils import report

from repro.analysis.reporting import Table, format_engineering
from repro.analysis.waveform_metrics import edge_times, steady_state_levels
from repro.circuits.complementary import build_complementary_lattice_circuit
from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.testbench import InputSequence
from repro.core.library import xor3_lattice_3x3
from repro.spice import get_engine


def _static_currents(bench_builder, switch_model):
    lattice = xor3_lattice_3x3()
    currents = []
    for bits in itertools.product([False, True], repeat=3):
        assignment = dict(zip("abc", bits))
        bench = bench_builder(lattice, assignment, switch_model)
        op = get_engine(bench.circuit).solve_dc()
        currents.append(abs(op.source_current("vdd_supply")))
    return max(currents)


def _edges(circuit, output_node, sequence):
    result = get_engine(circuit).solve_transient(sequence.total_duration_s, 1e-9)
    waveform = result.voltage(output_node)
    levels = steady_state_levels(result.time_s, waveform)
    rises, falls = edge_times(result.time_s, waveform, levels)
    return levels, (rises[0] if rises else float("nan")), (falls[0] if falls else float("nan"))


def test_complementary_vs_resistive_pullup(benchmark, switch_model):
    def run():
        lattice = xor3_lattice_3x3()
        sequence = InputSequence.exhaustive(("a", "b", "c"), step_duration_s=60e-9)

        resistive = build_lattice_circuit(lattice, model=switch_model, input_sequence=sequence)
        complementary = build_complementary_lattice_circuit(
            lattice, model=switch_model, input_sequence=sequence
        )

        results = {}
        results["resistive"] = {
            "static": _static_currents(
                lambda lat, asg, m: build_lattice_circuit(lat, model=m, static_assignment=asg),
                switch_model,
            ),
            "edges": _edges(resistive.circuit, resistive.output_node, sequence),
        }
        results["complementary"] = {
            "static": _static_currents(
                lambda lat, asg, m: build_complementary_lattice_circuit(
                    lat, model=m, static_assignment=asg
                ),
                switch_model,
            ),
            "edges": _edges(complementary.circuit, complementary.output_node, sequence),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["pull-up network", "worst static supply current", "V_low", "V_high", "rise", "fall"],
        title="Ablation — resistive vs complementary lattice pull-up (XOR3 circuit)",
    )
    for name, data in results.items():
        levels, rise, fall = data["edges"]
        table.add_row(
            [
                name,
                format_engineering(data["static"], "A"),
                f"{levels.low_v:.3f} V",
                f"{levels.high_v:.3f} V",
                format_engineering(rise, "s"),
                format_engineering(fall, "s"),
            ]
        )
    report(table.render())

    # Section VI-A's main claim holds: the complementary structure draws
    # almost no static supply current and reaches a hard 0 V low level.
    assert results["complementary"]["static"] < 0.05 * results["resistive"]["static"]
    assert results["complementary"]["edges"][0].low_v < 0.02
    # The rise-time claim is only partly realized with a single (n-type)
    # device polarity: the pass-transistor pull-up lattice loses a threshold
    # at the top of the swing, so its rising edge stays comparable to (not
    # dramatically faster than) the 500 kOhm resistor. Assert same order.
    assert results["complementary"]["edges"][1] < 3.0 * results["resistive"]["edges"][1]
