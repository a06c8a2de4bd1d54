"""Tests for the unified analysis engine: compiled assembly, fallbacks, sweeps.

The compiled engine is the only assembly.  Its answers are checked against
closed forms (the element oracles in ``test_spice_engine.py``, the RC
integration-order and LTE-controller oracles here); the solver-level tests
exercise the convergence fallbacks the three analyses share.
"""

import numpy as np
import pytest

from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    MOSFET,
    Pulse,
    Resistor,
    VoltageSource,
    get_engine,
)
from repro.spice.dcsweep import interpolate_crossing
from repro.spice.engine import CompiledCircuit
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import get_solver, scipy_available

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)


def _mixed_circuit():
    """A circuit exercising every compiled element class at once."""
    circuit = Circuit("mixed")
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    VoltageSource(circuit, "vg", "g", "0", 0.7)
    CurrentSource(circuit, "ib", "0", "mid", 1e-6)
    Resistor(circuit, "r1", "vdd", "d", 200e3)
    Resistor(circuit, "r2", "mid", "0", 50e3)
    Capacitor(circuit, "c1", "d", "0", 2e-15)
    Capacitor(circuit, "c2", "mid", "d", 1e-15)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    MOSFET(circuit, "m2", "mid", "g", "d", NMOS)
    return circuit


class TestCompiledAssemblyParity:
    def test_recompiles_when_circuit_grows(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        engine = get_engine(circuit)
        first = engine.compiled
        assert engine.compiled is first  # unchanged topology: cached
        Resistor(circuit, "r2", "in", "0", 1e3)
        second = engine.compiled
        assert second is not first
        op = get_engine(circuit).solve_dc()
        assert op.source_current("v1") == pytest.approx(-2e-3, rel=1e-6)

    def test_in_place_parameter_mutation_is_picked_up(self):
        # The compiled arrays snapshot element values; refresh_values() at
        # each solve must re-read them so parameter studies that mutate
        # elements in place (Monte Carlo style) stay correct.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        resistor = Resistor(circuit, "r1", "in", "0", 1e3)
        assert get_engine(circuit).solve_dc().source_current("v1") == pytest.approx(
            -1e-3, rel=1e-4
        )
        resistor.resistance_ohm = 2e3
        assert get_engine(circuit).solve_dc().source_current("v1") == pytest.approx(
            -0.5e-3, rel=1e-4
        )

    def test_mosfet_parameter_swap_is_picked_up(self):
        circuit = Circuit()
        VoltageSource(circuit, "vd", "d", "0", 1.0)
        VoltageSource(circuit, "vg", "g", "0", 1.2)
        mosfet = MOSFET(circuit, "m1", "d", "g", "0", NMOS)
        before = abs(get_engine(circuit).solve_dc().source_current("vd"))
        mosfet.parameters = NMOS.scaled(width_m=2 * NMOS.width_m, length_m=NMOS.length_m)
        after = abs(get_engine(circuit).solve_dc().source_current("vd"))
        assert after == pytest.approx(2.0 * before, rel=0.01)

    def test_capacitance_mutation_invalidates_transient_base(self):
        def run(circuit, capacitor, value):
            capacitor.capacitance_f = value
            result = get_engine(circuit).solve_transient(
                2e-6, 2e-8, use_initial_conditions=True
            )
            return result.sample_voltage("out", 1e-6)

        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        capacitor = Capacitor(circuit, "c1", "out", "0", 1e-9)
        at_tau = run(circuit, capacitor, 1e-9)
        assert at_tau == pytest.approx(1.0 - np.exp(-1.0), abs=0.02)
        # Doubling C doubles tau: at t = tau/2 the curve sits at 1 - e^-0.5.
        slower = run(circuit, capacitor, 2e-9)
        assert slower == pytest.approx(1.0 - np.exp(-0.5), abs=0.02)

    def test_singular_retries_do_not_grow_base_cache(self):
        # Dense and sparse assemblies share one cache of CSC base data.  A
        # serial solve and a stack, whose trials bump their own gmins, run
        # on each backend.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        engine = get_engine(circuit)
        runs = [("dense", "batched")]
        if scipy_available():
            runs.append(("sparse", "sparse-batched"))
        for serial, stacked in runs:
            op = get_engine(circuit).solve_dc(max_iterations=50, solver=serial)
            assert not op.converged
            stack = engine.solve_dc_batched(trials=2, max_iterations=50, solver=stacked)
            assert not stack.converged.any()
        # Only the caller-requested gmin contexts are retained; the
        # bumped-gmin retry bases are built uncached.
        cache = engine.compiled._base_data_cache
        assert 0 < len(cache) <= len((1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)) + 1
        width = engine.compiled.sparsity_pattern().nnz + 1
        assert all(base.shape == (width,) for base in cache.values())

    def test_get_engine_is_cached_on_circuit(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "0", 1e3)
        assert get_engine(circuit) is get_engine(circuit)

    def test_compiled_groups_element_classes(self):
        compiled = CompiledCircuit(_mixed_circuit())
        assert compiled.num_mosfets == 2
        assert compiled.num_capacitors == 2
        assert len(compiled.voltage_sources) == 2
        assert len(compiled.current_sources) == 1


class TwoKilohm:
    """A resistor-like element of no compiled type: a name, nodes and 2 kOhm."""

    name = "x_two_kilohm"
    resistance_ohm = 2e3

    def __init__(self, circuit, node_a, node_b):
        self._node_a = circuit.node(node_a)
        self._node_b = circuit.node(node_b)
        circuit.add(self)


class DoubledResistor(Resistor):
    """A subclass whose reported conductance is doubled."""

    @property
    def conductance(self) -> float:
        return 2.0 / self.resistance_ohm


class TestClosedElementSet:
    """The engine compiles exactly the five built-in element types."""

    @staticmethod
    def divider(lower):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        lower(circuit)
        Capacitor(circuit, "c1", "out", "0", 1e-12)
        return circuit

    CASES = {
        "protocol-only": (
            lambda c: TwoKilohm(c, "out", "0"),
            "'x_two_kilohm' of type TwoKilohm",
        ),
        "subclass": (
            lambda c: DoubledResistor(c, "r2", "out", "0", 1e3),
            "'r2' of type DoubledResistor",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "analysis",
        [
            lambda engine: engine.solve_dc(),
            lambda engine: engine.solve_transient(1e-9, 1e-10),
            lambda engine: engine.solve_dc_batched(trials=2),
            lambda engine: engine.solve_transient_batched(1e-9, 1e-10, trials=2),
        ],
        ids=["solve_dc", "solve_transient", "solve_dc_batched", "solve_transient_batched"],
    )
    def test_analyses_reject_uncompiled_elements(self, case, analysis):
        element, named = self.CASES[case]
        engine = get_engine(self.divider(element))
        with pytest.raises(TypeError, match=named):
            analysis(engine)

    def test_elements_carry_no_stamp_path(self):
        # The engine is the only assembly: neither the circuit nor any
        # element keeps a second, per-element copy of the equations.
        circuit = self.divider(lambda c: Resistor(c, "r2", "out", "0", 2e3))
        assert not hasattr(circuit, "assemble")
        for element in circuit.elements:
            for method in ("stamp", "reset", "update_history"):
                assert not hasattr(element, method), (element.name, method)
        # Branch currents come from the results, not from the elements.
        assert not hasattr(Resistor, "current")


RC_OHM = 1e3
RC_FARAD = 1e-9
RC_TAU_S = RC_OHM * RC_FARAD


def rc_ramp_exact(time_s):
    """Capacitor voltage of the RC low-pass driven by a 0 -> 1 V ramp over tau.

    ``v = (t - tau (1 - e^{-t/tau})) / tau`` during the ramp, then the
    exponential approach to 1 V from ``v(tau) = e^{-1}``.
    """
    t = np.asarray(time_s)
    ramp = (t - RC_TAU_S * (1.0 - np.exp(-t / RC_TAU_S))) / RC_TAU_S
    tail = 1.0 - (1.0 - np.exp(-1.0)) * np.exp(-(t - RC_TAU_S) / RC_TAU_S)
    return np.where(t <= RC_TAU_S, ramp, tail)


def rc_ramp_transient(integration, timestep_s, **options):
    """The RC low-pass on the 0 -> 1 V ramp, run for 3 tau with ``gmin=0``.

    Returns the result and its maximum error against :func:`rc_ramp_exact`.
    """
    circuit = Circuit("rc")
    VoltageSource(
        circuit, "vin", "in", "0", Pulse(0.0, 1.0, rise_s=RC_TAU_S, width_s=10 * RC_TAU_S)
    )
    Resistor(circuit, "r", "in", "out", RC_OHM)
    Capacitor(circuit, "c", "out", "0", RC_FARAD)
    result = get_engine(circuit).solve_transient(
        3 * RC_TAU_S, timestep_s, integration=integration, gmin=0.0, **options
    )
    assert result.converged
    error = float(np.max(np.abs(result.voltage("out") - rc_ramp_exact(result.time_s))))
    return result, error


class TestIntegrationOrder:
    """Observed convergence order of the fixed-step transient on an analytic RC.

    The RC starts at rest (so the zero initial trapezoidal history is
    exact) and the ramp's corner at ``t = tau`` lies on every grid of the
    ladder, so the global error must halve (BE) or quarter (trap) with each
    halving of the step.  ``gmin=0`` keeps the analytic solution exact.
    """

    @staticmethod
    def max_error(integration, timestep_s):
        return rc_ramp_transient(integration, timestep_s)[1]

    @pytest.mark.parametrize(
        "integration, low, high", [("be", 0.9, 1.1), ("trap", 1.8, 2.2)]
    )
    def test_observed_order_over_four_halvings(self, integration, low, high):
        steps = [RC_TAU_S / 10 / 2**k for k in range(5)]
        errors = [self.max_error(integration, step) for step in steps]
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(low <= order <= high for order in orders), orders


class TestAdaptiveController:
    """The LTE controller on the analytic RC, from an initial step of tau/10.

    Every step is checked against a predictor, the first one included, so
    tightening ``lte_tolerance_v`` tightens the observed error and the
    initial proposal is cut down to what the tolerance allows.
    """

    TOLERANCES_V = (2e-3, 5e-4, 1e-4)

    @staticmethod
    def run(integration, tolerance_v):
        return rc_ramp_transient(
            integration, RC_TAU_S / 10, adaptive=True, lte_tolerance_v=tolerance_v
        )

    def test_trap_error_follows_the_tolerance(self):
        errors = [self.run("trap", tol)[1] for tol in self.TOLERANCES_V]
        assert all(error <= tol for error, tol in zip(errors, self.TOLERANCES_V)), errors
        assert errors[-1] * 10.0 <= errors[0], errors

    @pytest.mark.parametrize("integration", ["be", "trap"])
    def test_first_step_is_checked(self, integration):
        for tol in self.TOLERANCES_V:
            result, _ = self.run(integration, tol)
            assert result.time_s[1] < RC_TAU_S / 10


class TestSolverFallbacks:
    def test_gmin_stepping_rescues_bad_initial_guess(self):
        # A hopeless initial guess: the damped Newton clamps each update to
        # 0.6 V, so it cannot walk back from 1e6 V within the iteration
        # budget — only the gmin-stepping restart (from zeros) converges.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        bad_guess = np.full(circuit.system_size, 1e6)
        op = get_engine(circuit).solve_dc(initial_guess=bad_guess)
        assert op.converged
        assert op.voltage("mid") == pytest.approx(1.5, abs=1e-3)
        # The fallback's iterations are accounted on top of the failed run.
        assert op.iterations > 300

    def test_singular_circuit_reports_nonconvergence(self):
        # Two ideal voltage sources forcing different values onto one node:
        # the MNA matrix is structurally singular, which no gmin bump fixes.
        # The analysis must report the failure instead of raising.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        op = get_engine(circuit).solve_dc(max_iterations=30)
        assert not op.converged
        assert not np.isfinite(op.max_residual) or op.max_residual > 0.0

    def test_convergence_info_reports_plain_newton(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        op = get_engine(circuit).solve_dc()
        info = op.convergence_info
        assert info is not None
        assert info.strategy == "newton"
        assert not info.used_fallback
        assert info.iterations == op.iterations
        assert info.final_max_update_v == op.max_residual
        assert info.final_max_update_v < 1e-7

    def test_convergence_info_reports_gmin_stepping(self):
        # The bad-initial-guess circuit: plain Newton fails, gmin stepping
        # rescues it — and the result must say so instead of succeeding
        # silently.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        bad_guess = np.full(circuit.system_size, 1e6)
        op = get_engine(circuit).solve_dc(initial_guess=bad_guess)
        assert op.converged
        info = op.convergence_info
        assert info.strategy == "gmin-stepping"
        assert info.used_fallback
        # The accounted iterations include the failed plain-Newton run.
        assert info.iterations == op.iterations > 300
        assert info.final_max_update_v < 1e-7

    def test_convergence_info_reports_failure(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        op = get_engine(circuit).solve_dc(max_iterations=30)
        assert not op.converged
        assert op.convergence_info.strategy == "failed"
        assert op.convergence_info.used_fallback

    def test_source_stepping_ladder_reaches_full_drive(self):
        # The source-stepping fallback must land on the true solution when
        # driven through the ladder (exercised directly; healthy circuits
        # never reach this stage).
        circuit = Circuit()
        VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
        Resistor(circuit, "rl", "vdd", "d", 500e3)
        MOSFET(circuit, "m1", "d", "g", "0", NMOS)
        VoltageSource(circuit, "vg", "g", "0", 1.2)
        engine = get_engine(circuit)
        solver = get_solver("dense").select(engine.compiled)
        # The stacked Newton loop, on a stack of one.
        solutions = circuit.initial_solution()[np.newaxis]
        for scale in (0.1, 0.25, 0.5, 0.75, 1.0):
            solutions, _, converged, _ = engine._newton_batched(
                solutions,
                {},
                gmin=1e-9,
                max_iterations=300,
                tolerance_v=1e-7,
                damping_v=0.6,
                source_scale=scale,
                solver=solver,
            )
        assert converged[0]
        reference = get_engine(circuit).solve_dc()
        assert solutions[0, circuit.node_index("d")] == pytest.approx(
            reference.voltage("d"), abs=1e-5
        )


class TestSweepContinuation:
    def _transfer_circuit(self):
        circuit = Circuit()
        VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
        gate = VoltageSource(circuit, "vg", "g", "0", 0.0)
        Resistor(circuit, "rl", "vdd", "d", 100e3)
        MOSFET(circuit, "m1", "d", "g", "0", NMOS)
        return circuit, gate

    def test_warm_start_matches_cold_start(self):
        values = np.linspace(0.0, 1.2, 13)
        circuit, gate = self._transfer_circuit()
        warm = get_engine(circuit).dc_sweep(gate, values, warm_start=True)

        cold_circuit, cold_gate = self._transfer_circuit()
        cold = get_engine(cold_circuit).dc_sweep(cold_gate, values, warm_start=False)

        assert warm.all_converged and cold.all_converged
        assert np.allclose(warm.voltage("d"), cold.voltage("d"), atol=1e-5)

    def test_sweep_many_matches_individual_sweeps(self):
        values = np.linspace(0.0, 1.2, 7)
        supplies = (1.0, 1.2)

        circuit, gate = self._transfer_circuit()
        supply = circuit.element("vdd")
        family = get_engine(circuit).sweep_many(
            gate,
            {v: values for v in supplies},
            configure=lambda v: supply.set_level(v),
        )
        assert list(family) == list(supplies)

        for supply_v in supplies:
            fresh_circuit, fresh_gate = self._transfer_circuit()
            fresh_circuit.element("vdd").set_level(supply_v)
            single = get_engine(fresh_circuit).dc_sweep(fresh_gate, values)
            assert np.allclose(
                family[supply_v].voltage("d"), single.voltage("d"), atol=1e-5
            )

    def test_sweep_result_vectorized_extraction(self):
        circuit, gate = self._transfer_circuit()
        sweep = get_engine(circuit).dc_sweep(gate, np.linspace(0.0, 1.2, 5))
        # Column slices must agree with the per-point accessors.
        per_point_v = np.array([p.voltage("d") for p in sweep.points])
        per_point_i = np.array([p.source_current("vdd") for p in sweep.points])
        assert np.array_equal(sweep.voltage("d"), per_point_v)
        assert np.array_equal(sweep.source_current("vdd"), per_point_i)
        assert sweep.solutions.shape == (5, circuit.system_size)

    def test_sweep_restores_waveform_on_error(self):
        from repro.spice.waveforms import DC

        circuit, gate = self._transfer_circuit()
        gate.waveform = DC(0.7)
        with pytest.raises(ValueError):
            get_engine(circuit).dc_sweep(gate, [])
        assert gate.value_at(0.0) == 0.7


class TestInterpolateCrossing:
    def test_first_point_exactly_on_target(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([5.0, 5.0, 7.0])
        # The loop-based version skipped the flat start and reported x=1.
        assert interpolate_crossing(xs, ys, 5.0) == 0.0

    def test_flat_curve_on_target_everywhere(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([3.0, 3.0])
        assert interpolate_crossing(xs, ys, 3.0) == 0.0

    def test_interior_crossing_interpolates(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 3.0])
        assert interpolate_crossing(xs, ys, 2.0) == pytest.approx(1.5)

    def test_no_crossing_is_nan(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 1.0])
        assert np.isnan(interpolate_crossing(xs, ys, 5.0))

    def test_empty_input_is_nan(self):
        assert np.isnan(interpolate_crossing(np.array([]), np.array([]), 1.0))

    def test_descending_crossing(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([4.0, 2.0, 0.0])
        assert interpolate_crossing(xs, ys, 3.0) == pytest.approx(0.5)


class TestBranchPositionCache:
    def test_cache_invalidated_by_new_nodes(self):
        circuit = Circuit()
        source = VoltageSource(circuit, "v1", "a", "0", 1.0)
        Resistor(circuit, "r1", "a", "0", 1e3)
        first = source.branch_position(circuit)
        assert first == circuit.num_nodes + source.branch
        # Adding an element with a new node shifts every branch position.
        Resistor(circuit, "r2", "b", "0", 1e3)
        second = source.branch_position(circuit)
        assert second == circuit.num_nodes + source.branch
        assert second == first + 1

    def test_revision_tracks_topology_changes(self):
        circuit = Circuit()
        before = circuit.revision
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        assert circuit.revision > before
        unchanged = circuit.revision
        circuit.node("a")  # existing node: no change
        assert circuit.revision == unchanged


class TestEngineTransient:
    def test_trapezoidal_history_matches_legacy_semantics(self):
        # An RC charging curve under trapezoidal integration exercises the
        # engine's vectorized capacitor history update.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            2e-6, 2e-8, integration="trap", use_initial_conditions=True
        )
        exact = 1.0 - np.exp(-1.0)
        assert result.sample_voltage("out", 1e-6) == pytest.approx(exact, abs=0.01)

    @pytest.mark.parametrize("march", ["fixed", "adaptive", "lockstep"])
    def test_circuit_without_unknowns_is_rejected(self, march):
        # From initial conditions no DC warm start runs first, so each entry
        # point must reject the empty unknown vector itself.
        engine = get_engine(Circuit("empty"))
        with pytest.raises(ValueError, match="no unknowns"):
            if march == "lockstep":
                engine.solve_transient_batched(
                    1e-8, 1e-9, trials=2, use_initial_conditions=True
                )
            else:
                engine.solve_transient(
                    1e-8, 1e-9, adaptive=march == "adaptive", use_initial_conditions=True
                )


class TestCapacitorInitialConditions:
    """``Capacitor(initial_voltage_v=...)`` seeds a march from initial conditions."""

    #: Time constant of the 1 kOhm || 1 nF discharge.
    TAU_S = 1e-6

    def _discharge(self):
        circuit = Circuit("rc-discharge")
        Resistor(circuit, "r1", "a", "0", 1e3)
        Capacitor(circuit, "c1", "a", "0", 1e-9, initial_voltage_v=1.0)
        return circuit

    @pytest.mark.parametrize(
        "integration, adaptive, rel",
        [("be", False, 0.01), ("trap", False, 0.03), ("be", True, 0.03)],
    )
    def test_discharge_starts_from_the_initial_voltage(self, integration, adaptive, rel):
        result = get_engine(self._discharge()).solve_transient(
            self.TAU_S,
            self.TAU_S / 100,
            integration=integration,
            adaptive=adaptive,
            use_initial_conditions=True,
        )
        assert result.converged
        assert result.sample_voltage("a", self.TAU_S) == pytest.approx(
            np.exp(-1.0), rel=rel
        )

    @pytest.mark.parametrize("integration", ["be", "trap"])
    def test_stacked_rows_equal_the_serial_run(self, integration):
        engine = get_engine(self._discharge())
        controls = dict(integration=integration, use_initial_conditions=True)
        serial = engine.solve_transient(self.TAU_S, self.TAU_S / 100, **controls)
        stacked = engine.solve_transient_batched(
            self.TAU_S, self.TAU_S / 100, trials=2, **controls
        )
        for row in stacked.solutions:
            assert np.array_equal(row, serial.solutions)
