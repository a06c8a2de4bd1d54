"""Unit tests for the SPICE engine: netlist, elements, DC, sweep, transient.

The element oracles are closed form (in the style of ORDeC's exact DC
pins): each test writes the model formula itself, here
:func:`smoothed_level1`, and finds any root it needs by bisection, so no
reference reuses the engine's device code.
"""

import math

import numpy as np
import pytest

from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    DC,
    Capacitor,
    Circuit,
    CurrentSource,
    MOSFET,
    PiecewiseLinear,
    Pulse,
    Resistor,
    VoltageSource,
    add_four_terminal_switch,
    get_engine,
)
from repro.spice.elements.mosfet import evaluate_level1_arrays
from repro.spice.netlist import AnalysisState

NMOS = Level1Parameters(kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6)

#: Smoothing voltage of the level-1 cutoff transition (2 n kT/q at 300 K).
SMOOTHING_V = 0.062


def smoothed_level1(parameters, vgs, vds):
    """Reference ``(ids, gm, gds)`` of the smoothed level-1 NMOS for ``vds >= 0``.

    The hard cutoff becomes the effective overdrive ``veff = W ln(1 +
    e^x)`` with ``x = (vgs - vth) / W``: exactly ``vgs - vth`` for ``x >
    40`` and the tail ``W e^x`` for ``x < -40``.  The square law then runs
    on ``veff``, triode for ``vds <= veff`` and saturation above, with
    channel-length modulation ``1 + lambda vds``.
    """
    beta = parameters.kp_a_per_v2 * (parameters.width_m / parameters.length_m)
    lam = parameters.lambda_per_v
    x = (vgs - parameters.vth_v) / SMOOTHING_V
    if x > 40.0:
        veff, dveff = vgs - parameters.vth_v, 1.0
    elif x < -40.0:
        veff, dveff = SMOOTHING_V * math.exp(x), math.exp(x)
    else:
        veff = SMOOTHING_V * math.log1p(math.exp(x))
        dveff = math.exp(x) / (1.0 + math.exp(x))
    clm = 1.0 + lam * vds
    if vds <= veff:
        body = veff * vds - 0.5 * vds * vds
        gds = beta * (veff - vds) * clm + beta * body * lam
        return beta * body * clm, beta * vds * clm * dveff, gds
    body = 0.5 * veff * veff
    return beta * body * clm, beta * veff * clm * dveff, beta * body * lam


def common_source(vgs, vdd=1.2, rload=500e3):
    """An NMOS with its gate at ``vgs`` pulling ``d`` down against ``rload``."""
    circuit = Circuit()
    VoltageSource(circuit, "vdd", "vdd", "0", vdd)
    VoltageSource(circuit, "vg", "g", "0", vgs)
    Resistor(circuit, "rl", "vdd", "d", rload)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


def bisect_root(f, low, high):
    """The root of a decreasing ``f`` with ``f(low) > 0 > f(high)``.

    Halves the bracket until its midpoint is no longer strictly inside,
    i.e. to the last representable bit.
    """
    while True:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            return mid
        if f(mid) > 0.0:
            low = mid
        else:
            high = mid


class TestCircuitContainer:
    def test_ground_aliases(self):
        circuit = Circuit()
        assert circuit.node("0") == -1
        assert circuit.node("gnd") == -1
        assert circuit.node("GND") == -1

    def test_node_creation_and_lookup(self):
        circuit = Circuit()
        index = circuit.node("a")
        assert circuit.node("a") == index
        assert circuit.node_index("a") == index
        assert circuit.num_nodes == 1

    def test_unknown_node_lookup_raises(self):
        circuit = Circuit()
        with pytest.raises(KeyError):
            circuit.node_index("missing")

    def test_invalid_node_name(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.node("")

    def test_duplicate_element_names_rejected(self):
        circuit = Circuit()
        Resistor(circuit, "r1", "a", "0", 100.0)
        with pytest.raises(ValueError):
            Resistor(circuit, "r1", "a", "b", 100.0)

    def test_element_lookup(self):
        circuit = Circuit()
        resistor = Resistor(circuit, "r1", "a", "0", 100.0)
        assert circuit.element("r1") is resistor
        assert "r1" in circuit
        with pytest.raises(KeyError):
            circuit.element("r2")

    def test_system_size_includes_branches(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        Resistor(circuit, "r1", "a", "0", 100.0)
        assert circuit.num_nodes == 1
        assert circuit.num_branches == 1
        assert circuit.system_size == 2

    def test_summary(self):
        circuit = Circuit("test")
        Resistor(circuit, "r1", "a", "0", 100.0)
        assert "Resistor" in circuit.summary()


class TestWaveforms:
    def test_dc(self):
        assert DC(2.5).value(1e-3) == 2.5

    def test_pulse_levels(self):
        pulse = Pulse(0.0, 1.0, delay_s=1e-9, rise_s=1e-10, fall_s=1e-10, width_s=5e-9)
        assert pulse.value(0.0) == 0.0
        assert pulse.value(2e-9) == pytest.approx(1.0)
        assert pulse.value(1e-9 + 1e-10 + 5e-9 + 1e-10 + 1e-9) == pytest.approx(0.0)

    def test_pulse_periodic(self):
        pulse = Pulse(0.0, 1.0, rise_s=1e-10, fall_s=1e-10, width_s=4e-9, period_s=10e-9)
        assert pulse.value(2e-9) == pytest.approx(pulse.value(12e-9))

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            Pulse(0.0, 1.0, rise_s=0.0)

    def test_pwl_interpolation(self):
        pwl = PiecewiseLinear.from_pairs([(0.0, 0.0), (1.0, 2.0)])
        assert pwl.value(-1.0) == 0.0
        assert pwl.value(0.5) == pytest.approx(1.0)
        assert pwl.value(2.0) == 2.0

    def test_pwl_requires_increasing_times(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.from_pairs([(1.0, 0.0), (0.5, 1.0)])

    def test_pwl_steps(self):
        steps = PiecewiseLinear.steps([0.0, 1.2, 0.0], 10e-9, transition_s=1e-9)
        assert steps.value(5e-9) == pytest.approx(0.0)
        assert steps.value(15e-9) == pytest.approx(1.2)
        assert steps.value(25e-9) == pytest.approx(0.0)

    def test_pwl_steps_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.steps([1.0], 1e-9, transition_s=1e-9)
        with pytest.raises(ValueError):
            PiecewiseLinear.steps([], 1e-8)


class TestLinearCircuits:
    # The linear pins run at gmin=0: the default 1 nS from every node to
    # ground would move the ideal answers by microvolts.

    def test_voltage_divider(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.converged
        assert op.voltage("mid") == 1.5

    def test_voltage_divider_inexact_ratio(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "mid", 2e3)
        Resistor(circuit, "r2", "mid", "0", 1e3)
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.converged
        assert op.voltage("mid") == 1e3 / 3e3 == 0.3333333333333333

    def test_source_current_convention(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        op = get_engine(circuit).solve_dc()
        # The supply sources 1 mA, so the branch current is -1 mA.
        assert op.source_current("v1") == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        CurrentSource(circuit, "i1", "0", "a", 1e-3)
        Resistor(circuit, "r1", "a", "0", 1e3)
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.voltage("a") == 1.0

    def test_resistor_validation(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            Resistor(circuit, "r1", "a", "0", 0.0)

    def test_capacitor_validation(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            Capacitor(circuit, "c1", "a", "0", -1e-15)

    def test_open_resistor_is_accepted(self):
        # inf is the one non-finite value the rules allow: an open resistor.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", math.inf)
        Resistor(circuit, "r3", "mid", "0", 1e3)
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.converged and op.voltage("mid") == 0.5

    def test_capacitor_open_in_dc(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-12)
        op = get_engine(circuit).solve_dc()
        assert op.voltage("out") == pytest.approx(1.0, abs=1e-3)

    def test_voltages_dict(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        Resistor(circuit, "r1", "a", "b", 1e3)
        Resistor(circuit, "r2", "b", "0", 1e3)
        op = get_engine(circuit).solve_dc()
        voltages = op.voltages()
        assert set(voltages) == {"a", "b"}

    def test_series_resistors_with_two_sources(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 2.0)
        VoltageSource(circuit, "v2", "c", "0", 1.0)
        Resistor(circuit, "r1", "a", "b", 1e3)
        Resistor(circuit, "r2", "b", "c", 1e3)
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.voltage("b") == 1.5


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteValues:
    """Element values are checked where they enter: in the constructors and,
    for values mutated in place afterwards, at the next solve's refresh."""

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_resistor_rejects(self, value):
        with pytest.raises(ValueError, match="resistor 'r1': resistance must be positive"):
            Resistor(Circuit(), "r1", "a", "0", value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_capacitor_rejects(self, value):
        with pytest.raises(ValueError, match="capacitor 'c1': capacitance"):
            Capacitor(Circuit(), "c1", "a", "0", value)
        with pytest.raises(ValueError, match="capacitor 'c1': initial voltage"):
            Capacitor(Circuit(), "c1", "a", "0", 1e-15, initial_voltage_v=value)

    @pytest.mark.parametrize("kind", [VoltageSource, CurrentSource])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_sources_reject(self, kind, value):
        with pytest.raises(ValueError, match="source 's1': level must be finite"):
            kind(Circuit(), "s1", "a", "0", value)
        source = kind(Circuit(), "s1", "a", "0", 1.0)
        with pytest.raises(ValueError, match="source 's1': level must be finite"):
            source.set_level(value)

    @pytest.mark.parametrize(
        "field", ["kp_a_per_v2", "vth_v", "lambda_per_v", "width_m", "length_m"]
    )
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_level1_parameters_reject(self, field, value):
        fields = dict(
            kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=1e-6, length_m=1e-6
        )
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Level1Parameters(**fields)

    def test_nan_divider_raises_before_any_factorization(self):
        from repro.spice.solvers import get_solver

        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        r2 = Resistor(circuit, "r2", "mid", "0", 1e3)
        engine = get_engine(circuit)
        assert engine.solve_dc().converged
        r2.resistance_ohm = math.nan
        solver = get_solver("dense")
        with pytest.raises(ValueError, match="element 'r2': resistor_ohm must be positive; got nan"):
            engine.solve_dc(solver=solver)
        assert solver.solver_stats()["factorizations"] == 0

    @pytest.mark.parametrize(
        "attribute, message",
        [
            ("capacitance_f", "element 'c1': cap_c must be finite and non-negative; got inf"),
            ("initial_voltage_v", "element 'c1': cap_v0 must be finite; got inf"),
        ],
        ids=["capacitance_f", "initial_voltage_v"],
    )
    def test_mutated_capacitor_raises_at_the_next_solve(self, attribute, message):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        capacitor = Capacitor(circuit, "c1", "out", "0", 1e-12)
        setattr(capacitor, attribute, math.inf)
        with pytest.raises(ValueError, match=message):
            get_engine(circuit).solve_transient(1e-9, 1e-10)


class TestMOSFETElement:
    def test_off_state_output_high(self):
        op = get_engine(common_source(vgs=0.0)).solve_dc()
        assert op.converged
        assert op.voltage("d") > 1.15

    def test_on_state_output_low(self):
        op = get_engine(common_source(vgs=1.2)).solve_dc()
        assert op.converged
        assert op.voltage("d") < 0.1

    def test_matches_level1_in_saturation(self):
        # Force a known operating point: ideal sources on all terminals.
        circuit = Circuit()
        VoltageSource(circuit, "vd", "d", "0", 3.0)
        VoltageSource(circuit, "vg", "g", "0", 2.0)
        mosfet = MOSFET(circuit, "m1", "d", "g", "0", NMOS)
        op = get_engine(circuit).solve_dc()
        measured = -op.source_current("vd")
        from repro.fitting.level1 import level1_current

        expected = level1_current(NMOS, 2.0, 3.0)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_symmetric_conduction(self):
        # Swap drain and source: the device must conduct the same magnitude.
        def chain(reversed_nodes):
            circuit = Circuit()
            VoltageSource(circuit, "vin", "a", "0", 1.0)
            VoltageSource(circuit, "vg", "g", "0", 1.2)
            if reversed_nodes:
                MOSFET(circuit, "m1", "0", "g", "a", NMOS)
            else:
                MOSFET(circuit, "m1", "a", "g", "0", NMOS)
            return abs(get_engine(circuit).solve_dc().source_current("vin"))

        assert chain(False) == pytest.approx(chain(True), rel=1e-6)

    def test_channel_current_reporting(self):
        circuit = common_source(vgs=1.2)
        op = get_engine(circuit).solve_dc()
        mosfet = circuit.element("m1")
        current = mosfet.channel_current(AnalysisState(solution=op.solution))
        # Must equal the pull-up resistor current at the operating point.
        resistor_current = (op.voltage("vdd") - op.voltage("d")) / 500e3
        assert current == pytest.approx(resistor_current, rel=0.05)

    def test_subthreshold_smoothing_continuous(self):
        # Across the threshold and across both guard points of the engine's
        # model (x = -40 into the exponential tail, x = +40 into the exact
        # linear branch) the current moves only by the step in vgs.
        def ids(vgs):
            return evaluate_level1_arrays(
                np.array([vgs]), np.array([1.0]), NMOS.beta, NMOS.vth_v,
                NMOS.lambda_per_v, MOSFET.SMOOTHING_V,
            )[0][0]

        for edge in (0.0, -40.0 * SMOOTHING_V, 40.0 * SMOOTHING_V):
            vgs = NMOS.vth_v + edge
            just_below, just_above = ids(vgs - 1e-6), ids(vgs + 1e-6)
            assert just_below == pytest.approx(just_above, rel=1e-3)
            assert just_below == pytest.approx(
                smoothed_level1(NMOS, vgs - 1e-6, 1.0)[0], rel=1e-12
            )

    @pytest.mark.parametrize("max_overdrive_v", [1.0, 4.0])
    def test_vectorized_model_matches_scalar_reference(self, max_overdrive_v):
        # The engine's array evaluation against the test's own formula,
        # from deep cutoff (x < -40) through the smooth transition, in triode
        # and saturation; with 4 V of overdrive some devices pass the x > 40
        # guard (overdrive > 40 * SMOOTHING_V) and take the exact linear
        # branch, with 1 V none does.
        assert MOSFET.SMOOTHING_V == SMOOTHING_V
        rng = np.random.default_rng(3)
        vgs = NMOS.vth_v + rng.uniform(-3.0, max_overdrive_v, 400)
        vds = rng.uniform(0.0, 3.0, 400)
        count = vgs.size
        ids, gm, gds = evaluate_level1_arrays(
            vgs,
            vds,
            np.full(count, NMOS.beta),
            np.full(count, NMOS.vth_v),
            np.full(count, NMOS.lambda_per_v),
            np.full(count, MOSFET.SMOOTHING_V),
        )
        reference = np.array([smoothed_level1(NMOS, g, d) for g, d in zip(vgs, vds)])
        x = (vgs - NMOS.vth_v) / SMOOTHING_V
        assert (x < -40.0).any()
        assert (x > 40.0).any() == (max_overdrive_v > 40.0 * SMOOTHING_V)
        for got, expected in zip((ids, gm, gds), reference.T):
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


class TestMOSFETClosedForm:
    """Converged DC answers against the root of the node's KCL.

    Each bench has one free node.  The reference is the root of its KCL
    written with :func:`smoothed_level1`, bisected to the last bit; the
    engine solves at ``gmin=0`` and ``tolerance_v=1e-12`` (at the default
    1e-7 V its answers sit about 1.5e-10 V off) and must land within
    1e-13 V of it.
    """

    VDD = 1.2
    BOUND_V = 1e-13
    LOADS_OHM = (5e3, 50e3, 500e3)

    @staticmethod
    def solve(circuit, node):
        op = get_engine(circuit).solve_dc(gmin=0.0, tolerance_v=1e-12)
        assert op.converged
        return op.voltage(node)

    @pytest.mark.parametrize("rload", LOADS_OHM)
    @pytest.mark.parametrize("vgs", [0.3, 0.6, 1.2])
    def test_common_source(self, vgs, rload):
        circuit = common_source(vgs, vdd=self.VDD, rload=rload)

        def kcl(vd):
            return (self.VDD - vd) / rload - smoothed_level1(NMOS, vgs, vd)[0]

        expected = bisect_root(kcl, 0.0, self.VDD)
        assert abs(self.solve(circuit, "d") - expected) <= self.BOUND_V

    @pytest.mark.parametrize("rload", LOADS_OHM)
    def test_source_follower(self, rload):
        circuit = Circuit()
        VoltageSource(circuit, "vdd", "vdd", "0", self.VDD)
        VoltageSource(circuit, "vg", "g", "0", self.VDD)
        MOSFET(circuit, "m1", "vdd", "g", "s", NMOS)
        Resistor(circuit, "rl", "s", "0", rload)

        def kcl(vs):
            return smoothed_level1(NMOS, self.VDD - vs, self.VDD - vs)[0] - vs / rload

        expected = bisect_root(kcl, 0.0, self.VDD)
        assert abs(self.solve(circuit, "s") - expected) <= self.BOUND_V

    @pytest.mark.parametrize("rload", LOADS_OHM)
    def test_diode_connected(self, rload):
        circuit = Circuit()
        VoltageSource(circuit, "vdd", "vdd", "0", self.VDD)
        Resistor(circuit, "rl", "vdd", "d", rload)
        MOSFET(circuit, "m1", "d", "d", "0", NMOS)

        def kcl(vd):
            return (self.VDD - vd) / rload - smoothed_level1(NMOS, vd, vd)[0]

        expected = bisect_root(kcl, 0.0, self.VDD)
        assert abs(self.solve(circuit, "d") - expected) <= self.BOUND_V


class TestFourTerminalSwitchClosedForm:
    """The Fig. 9 switch with T1 driven and T2-T4 held at 0 V.

    Three channels touch T1: two adjacent pairs (Type A, T1-T3 and T1-T4)
    and one opposite pair (Type B, T1-T2), every one at ``vgs = gate`` and
    ``vds = drive``; the other three see ``vds = 0`` and carry nothing.  The
    geometry is the paper's: W = 0.7 um, L = 0.35 um (Type A) and 0.5 um
    (Type B).
    """

    DRIVE_V = 1.2

    @pytest.mark.parametrize("gate_v", [0.0, 1.2])
    def test_t1_current_is_two_type_a_plus_one_type_b(self, switch_model, gate_v):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "t1", "0", self.DRIVE_V)
        for terminal in ("t2", "t3", "t4"):
            VoltageSource(circuit, f"v_{terminal}", terminal, "0", 0.0)
        VoltageSource(circuit, "vg", "g", "0", gate_v)
        terminals = {name: name.lower() for name in ("T1", "T2", "T3", "T4")}
        add_four_terminal_switch(
            circuit, "sw", terminals, "g", switch_model, add_terminal_capacitors=False
        )
        op = get_engine(circuit).solve_dc(gmin=0.0)
        assert op.converged

        process = switch_model.type_a
        type_a, type_b = (
            Level1Parameters(
                kp_a_per_v2=process.kp_a_per_v2,
                vth_v=process.vth_v,
                lambda_per_v=process.lambda_per_v,
                width_m=0.7e-6,
                length_m=length_m,
            )
            for length_m in (0.35e-6, 0.5e-6)
        )
        expected = (
            2.0 * smoothed_level1(type_a, gate_v, self.DRIVE_V)[0]
            + smoothed_level1(type_b, gate_v, self.DRIVE_V)[0]
        )
        # The drive sources the current: its branch current is negative.
        assert -op.source_current("v1") == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestDCSweep:
    def test_resistor_sweep_linear(self):
        circuit = Circuit()
        source = VoltageSource(circuit, "v1", "a", "0", 0.0)
        Resistor(circuit, "r1", "a", "0", 1e3)
        sweep = get_engine(circuit).dc_sweep(source, np.linspace(0, 1, 6))
        assert sweep.all_converged
        currents = -sweep.source_current("v1")
        assert np.allclose(currents, sweep.values / 1e3, rtol=1e-6)

    def test_sweep_restores_waveform(self):
        circuit = Circuit()
        source = VoltageSource(circuit, "v1", "a", "0", DC(5.0))
        Resistor(circuit, "r1", "a", "0", 1e3)
        get_engine(circuit).dc_sweep("v1", [0.0, 1.0])
        assert source.value_at(0.0) == 5.0

    def test_find_value_for_voltage(self):
        circuit = Circuit()
        VoltageSource(circuit, "vin", "in", "0", 0.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Resistor(circuit, "r2", "out", "0", 1e3)
        sweep = get_engine(circuit).dc_sweep("vin", np.linspace(0, 2, 21))
        assert sweep.find_value_for_voltage("out", 0.5) == pytest.approx(1.0, abs=0.01)

    def test_find_value_never_crossing_is_nan(self):
        circuit = Circuit()
        VoltageSource(circuit, "vin", "in", "0", 0.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        sweep = get_engine(circuit).dc_sweep("vin", np.linspace(0, 1, 5))
        assert np.isnan(sweep.find_value_for_voltage("in", 5.0))

    def test_sweep_requires_source(self):
        circuit = Circuit()
        Resistor(circuit, "r1", "a", "0", 1e3)
        with pytest.raises(TypeError):
            get_engine(circuit).dc_sweep("r1", [0.0, 1.0])

    def test_nmos_transfer_sweep_monotone(self):
        circuit = Circuit()
        VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
        gate = VoltageSource(circuit, "vg", "g", "0", 0.0)
        Resistor(circuit, "rl", "vdd", "d", 100e3)
        MOSFET(circuit, "m1", "d", "g", "0", NMOS)
        sweep = get_engine(circuit).dc_sweep(gate, np.linspace(0, 1.2, 13))
        vout = sweep.voltage("d")
        assert np.all(np.diff(vout) <= 1e-9)


class TestTransient:
    def test_rc_charging_curve(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", Pulse(0.0, 1.0, delay_s=0.0, rise_s=1e-12, width_s=1.0))
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(5e-6, 1e-8)
        tau_value = result.sample_voltage("out", 1e-6)
        assert tau_value == pytest.approx(1.0 - np.exp(-1.0), abs=0.02)
        assert result.voltage("out")[-1] == pytest.approx(1.0, abs=0.01)

    def test_both_integration_methods_track_rc_charging(self):
        def run(integration):
            circuit = Circuit()
            VoltageSource(circuit, "v1", "in", "0", DC(1.0))
            Resistor(circuit, "r1", "in", "out", 1e3)
            Capacitor(circuit, "c1", "out", "0", 1e-9)
            result = get_engine(circuit).solve_transient(
                2e-6, 5e-8, integration=integration, use_initial_conditions=True
            )
            return result.sample_voltage("out", 1e-6)

        exact = 1.0 - np.exp(-1.0)
        assert abs(run("be") - exact) < 0.03
        assert abs(run("trap") - exact) < 0.03

    def test_initial_condition_from_dc(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-12)
        result = get_engine(circuit).solve_transient(1e-8, 1e-10)
        assert result.voltage("out")[0] == pytest.approx(1.0, abs=1e-3)

    def test_use_initial_conditions_starts_at_zero(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            1e-7, 1e-9, use_initial_conditions=True
        )
        assert result.voltage("out")[0] == pytest.approx(0.0, abs=1e-6)
        assert result.voltage("out")[-1] > 0.05

    def test_validation(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        with pytest.raises(ValueError):
            get_engine(circuit).solve_transient(-1.0, 1e-9)
        with pytest.raises(ValueError):
            get_engine(circuit).solve_transient(1e-9, 1e-6)
        with pytest.raises(ValueError):
            get_engine(circuit).solve_transient(1e-6, 1e-9, integration="gear")

    def test_source_current_waveform(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        result = get_engine(circuit).solve_transient(1e-8, 1e-9)
        assert np.allclose(result.source_current("v1"), -1e-3, rtol=1e-6)

    def test_final_voltages(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Resistor(circuit, "r2", "out", "0", 1e3)
        result = get_engine(circuit).solve_transient(1e-8, 1e-9)
        assert result.final_voltages()["out"] == pytest.approx(0.5, abs=1e-6)
