"""Tests for pattern assembly, dense placement and the sparse-batched path.

Every assembly bins element stamps into the precomputed CSC pattern
(serial ``(nnz,)`` or stacked ``(trials, nnz)``), which dense assemblies
place into zeroed matrices.  Every dense entry off the pattern must be
exactly zero, and dense, sparse, serial and
batched results must agree *bit for bit* at zero and nonzero sigma, for
DC and transient companion states, across channel-orientation flips and
with the kernel's cached state warm.  At the solve level the sparse-batched
backend must match the serial sparse backend bit for bit (identical data,
identical per-trial factorizations) and the dense-batched reference to
tight tolerance.
"""

import math

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.circuits import build_scalability_bench
from repro.experiments.fig11_xor3_transient import build_fig11_bench
from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Gaussian,
    MOSFET,
    MonteCarloEngine,
    Pulse,
    Resistor,
    VoltageSource,
    get_engine,
)
from repro.spice.engine import CompiledCircuit
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import scipy_available
from repro.spice.waveforms import DC, PiecewiseLinear, Waveform

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)

STOP_S = 20e-9
STEP_S = 0.5e-9


def pulsed_amplifier():
    circuit = Circuit("pulsed-amplifier")
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    VoltageSource(
        circuit,
        "vg",
        "g",
        "0",
        Pulse(0.0, 1.2, delay_s=2e-9, rise_s=1e-9, fall_s=1e-9, width_s=6e-9, period_s=40e-9),
    )
    Resistor(circuit, "rl", "vdd", "d", 500e3)
    Capacitor(circuit, "cl", "d", "0", 2e-15)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


def scatter_dense(pattern, data):
    """Dense matrix reconstructed from pattern data (exact scatter)."""
    matrix = np.zeros((pattern.size, pattern.size))
    matrix[pattern.rows, pattern.cols] = data
    return matrix


class TestSparsityPattern:
    def test_pattern_covers_every_assembled_entry(self, switch_model):
        # Reconstructing the dense matrix from the pattern data must give
        # back the dense assembly exactly — including that every entry the
        # dense path writes is inside the pattern (a miss would leave a
        # nonzero unreconstructed and the equality would fail).
        bench = build_scalability_bench(4, model=switch_model)
        engine = get_engine(bench.circuit)
        compiled = engine.compiled
        pattern = compiled.sparsity_pattern()
        op = engine.solve_dc()
        state = AnalysisState(solution=op.solution, gmin=1e-9)
        matrix, rhs = compiled.assemble(state)
        data, sparse_rhs = compiled.assemble_sparse(state)
        assert data.shape == (pattern.nnz,)
        assert np.array_equal(scatter_dense(pattern, data), matrix)
        assert np.array_equal(sparse_rhs, rhs)

    def test_transient_companion_state_matches_dense(self):
        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        compiled = engine.compiled
        pattern = compiled.sparsity_pattern()
        op = engine.solve_dc()
        state = AnalysisState(
            solution=op.solution,
            time_s=3e-9,
            timestep_s=STEP_S,
            previous_solution=op.solution,
            integration="trap",
            gmin=1e-9,
        )
        history = np.full(compiled.num_capacitors, 1e-9)
        matrix, rhs = compiled.assemble(state, cap_history=history)
        data, sparse_rhs = compiled.assemble_sparse(state, cap_history=history)
        assert np.array_equal(scatter_dense(pattern, data), matrix)
        assert np.array_equal(sparse_rhs, rhs)


def analysis_state(circuit, kind, rng):
    """A DC, backward-Euler or trapezoidal state at a random iterate."""
    solution = rng.uniform(-0.2, 1.4, circuit.system_size)
    if kind == "dc":
        return AnalysisState(solution=solution, time_s=150e-9, gmin=1e-9)
    return AnalysisState(
        solution=solution,
        time_s=150e-9,
        timestep_s=1e-9,
        previous_solution=rng.uniform(-0.2, 1.4, circuit.system_size),
        integration=kind,
        gmin=1e-9,
    )


class TestDensePlacement:
    @pytest.mark.parametrize("kind", ["dc", "be", "trap"])
    def test_fig11_placement_matches_sparse_assembly(self, switch_model, kind):
        rng = np.random.default_rng(5)
        circuit = build_fig11_bench(model=switch_model).circuit
        compiled = get_engine(circuit).compiled
        state = analysis_state(circuit, kind, rng)
        # A nonzero trapezoidal history current on every capacitor.
        history = rng.uniform(-1e-6, 1e-6, compiled.num_capacitors)
        matrix, rhs = compiled.assemble(state, cap_history=history)
        # Off the pattern the placed matrix is exactly zero.
        pattern = compiled.sparsity_pattern()
        on_pattern = np.zeros(matrix.shape, dtype=bool)
        on_pattern[pattern.rows, pattern.cols] = True
        assert np.all(matrix[~on_pattern] == 0.0)
        # On it, the placed entries are the sparse assembly bit for bit.
        data, sparse_rhs = compiled.assemble_sparse(state, cap_history=history)
        assert np.array_equal(matrix[pattern.rows, pattern.cols], data)
        assert np.array_equal(rhs, sparse_rhs)

    @pytest.mark.parametrize("kind", ["dc", "be", "trap"])
    def test_batched_rows_match_serial_assembly(self, switch_model, kind):
        # Row t of the stack == the serial assembly with trial t's overlay,
        # bit for bit, in the dense and the pattern layout, at an iterate
        # and at its mirror image (every channel flips its orientation),
        # with a linear overlay (resistor_ohm) in play so the per-trial
        # base path is taken too.
        rng = np.random.default_rng(13)
        circuit = build_fig11_bench(model=switch_model).circuit
        mc = MonteCarloEngine(
            circuit,
            {
                "mos_vth": Gaussian(0.03),
                "mos_beta": Gaussian(0.05, relative=True),
                "resistor_ohm": Gaussian(0.05, relative=True),
            },
            seed=17,
        )
        compiled = get_engine(circuit).compiled
        stacks = mc.sample_stacked_overlays(3)
        state = analysis_state(circuit, kind, rng)
        iterates = state.solution + rng.uniform(-0.05, 0.05, (3, circuit.system_size))
        history = rng.uniform(-1e-6, 1e-6, (3, compiled.num_capacitors))
        transient = kind != "dc"
        layouts = (
            (compiled.assemble_batched, compiled.assemble),
            (compiled.assemble_sparse_batched, compiled.assemble_sparse),
        )
        for solutions in (iterates, -iterates):
            for assemble_stack, assemble_row in layouts:
                systems, rhs = assemble_stack(
                    solutions,
                    stacks,
                    gmin=state.gmin,
                    time_s=state.time_s,
                    timestep_s=state.timestep_s,
                    integration=state.integration,
                    previous_solutions=(
                        np.tile(state.previous_solution, (3, 1)) if transient else None
                    ),
                    cap_history=history if transient else None,
                )
                try:
                    for trial in range(3):
                        compiled.set_parameter_overlay(
                            {name: stack[trial] for name, stack in stacks.items()}
                        )
                        trial_state = AnalysisState(
                            solution=solutions[trial],
                            time_s=state.time_s,
                            timestep_s=state.timestep_s,
                            previous_solution=state.previous_solution,
                            integration=state.integration,
                            gmin=state.gmin,
                        )
                        serial, serial_rhs = assemble_row(
                            trial_state, cap_history=history[trial], cache_base=False
                        )
                        assert np.array_equal(serial, systems[trial])
                        assert np.array_equal(serial_rhs, rhs[trial])
                finally:
                    compiled.clear_parameter_overlay()


def source_mesh():
    """Every kind of right-hand-side stamp, several on each node, grounded
    terminals included."""
    circuit = Circuit("source-mesh")
    VoltageSource(
        circuit,
        "v1",
        "a",
        "0",
        Pulse(0.0, 1.2, delay_s=1e-9, rise_s=1e-9, fall_s=1e-9, width_s=5e-9, period_s=20e-9),
    )
    VoltageSource(circuit, "v2", "c", "b", 0.3)
    CurrentSource(circuit, "i1", "0", "b", 1e-6)
    CurrentSource(circuit, "i2", "b", "a", 2.5e-6)
    CurrentSource(circuit, "i3", "b", "c", 0.7e-6)
    Resistor(circuit, "r1", "a", "b", 1e3)
    Resistor(circuit, "r2", "b", "0", 2e3)
    Resistor(circuit, "r3", "c", "0", 3e3)
    Capacitor(circuit, "c1", "b", "0", 1e-12)
    Capacitor(circuit, "c2", "a", "b", 2e-12)
    Capacitor(circuit, "c3", "b", "c", 3e-12)
    return circuit


def loop_rhs(compiled, params, time_s, scale, timestep_s, integration, previous, history):
    """The linear right-hand side added up one stamp at a time, in stamp
    order: voltage sources, current sources (plus nodes, then minus), then
    capacitor history currents (a nodes, then b)."""
    rhs = [0.0] * (compiled.size + 1)
    vs_scale = params.get("vsource_scale", np.ones(len(compiled.voltage_sources)))
    for source, row, factor in zip(compiled.voltage_sources, compiled.vs_rows, vs_scale):
        rhs[row] += scale * source.waveform.value(time_s) * factor
    is_scale = params.get("isource_scale", np.ones(len(compiled.current_sources)))
    currents = [
        scale * source.waveform.value(time_s) * factor
        for source, factor in zip(compiled.current_sources, is_scale)
    ]
    for node, current in zip(compiled.is_plus, currents):
        rhs[node] += -current
    for node, current in zip(compiled.is_minus, currents):
        rhs[node] += current
    if timestep_s is not None:
        conductance = compiled._capacitor_conductance(
            timestep_s, integration, params.get("cap_c")
        )
        padded = np.append(previous, 0.0)
        history_currents = [
            g * (padded[a] - padded[b]) + (h if integration == "trap" else 0.0)
            for g, a, b, h in zip(conductance, compiled.cap_a, compiled.cap_b, history)
        ]
        for node, current in zip(compiled.cap_a, history_currents):
            rhs[node] += current
        for node, current in zip(compiled.cap_b, history_currents):
            rhs[node] += -current
    return np.array(rhs)


class TestLinearRhs:
    """The linear right-hand side (sources plus capacitor history), serial
    and stacked, against the stamp-by-stamp sum, bit for bit."""

    @pytest.mark.parametrize(
        "timestep_s, integration", [(None, "be"), (1e-10, "be"), (1e-10, "trap")]
    )
    def test_serial_and_stacked_match_the_stamp_loop(self, timestep_s, integration):
        rng = np.random.default_rng(3)
        compiled = get_engine(source_mesh()).compiled
        trials = 3
        stacks = {
            "vsource_scale": rng.uniform(0.9, 1.1, (trials, len(compiled.voltage_sources))),
            "isource_scale": rng.uniform(0.9, 1.1, (trials, len(compiled.current_sources))),
            "cap_c": compiled.cap_c * rng.uniform(0.9, 1.1, (trials, compiled.num_capacitors)),
        }
        previous = rng.uniform(-1.0, 1.0, (trials, compiled.size))
        history = rng.uniform(-1e-6, 1e-6, (trials, compiled.num_capacitors))
        time_s, scale = 1.7e-9, 0.75
        stacked = compiled._linear_rhs(
            (trials,), stacks, time_s, scale, timestep_s, integration, previous, history
        )
        assert stacked.shape == (trials, compiled.size + 1)
        for trial in range(trials):
            params = {name: stack[trial] for name, stack in stacks.items()}
            want = loop_rhs(
                compiled, params, time_s, scale, timestep_s, integration,
                previous[trial], history[trial],
            )
            serial = compiled._linear_rhs(
                (), params, time_s, scale, timestep_s, integration,
                previous[trial], history[trial],
            )
            assert np.array_equal(serial, want)
            assert np.array_equal(stacked[trial], want)

    def test_circuit_without_sources_has_a_zero_rhs(self):
        circuit = Circuit("passive")
        Resistor(circuit, "r1", "a", "0", 1e3)
        compiled = get_engine(circuit).compiled
        rhs = compiled._linear_rhs((), {}, 0.0, 1.0, None, "be", None, None)
        assert rhs.dtype == float and np.array_equal(rhs, np.zeros(compiled.size + 1))
        rhs = compiled._linear_rhs((2,), {}, 0.0, 1.0, None, "be", None, None)
        assert rhs.dtype == float and np.array_equal(rhs, np.zeros((2, compiled.size + 1)))


class Chirp(Waveform):
    """A user waveform that implements only ``value``."""

    def value(self, time_s):
        return 0.6 + 0.5 * math.sin(3.0e17 * time_s * time_s)


class InvertedPulse(Pulse):
    """A ``Pulse`` subclass that redefines ``value``: the table must use it."""

    def value(self, time_s):
        return -super().value(time_s)


def waveform_zoo():
    """One source per waveform kind the source table distinguishes."""
    circuit = Circuit("waveform-zoo")
    voltages = {
        "dc": DC(0.3),
        "dc_int": DC(1),
        "one_shot": Pulse(0.0, 1.2, delay_s=2e-9, rise_s=0.7e-9, fall_s=1.3e-9, width_s=3e-9),
        "periodic": Pulse(1.2, 0.1, delay_s=1e-9, rise_s=0.4e-9, fall_s=0.6e-9,
                          width_s=1.1e-9, period_s=3.7e-9),
        "pwl": PiecewiseLinear.steps([0.0, 1.2, 0.4, 1.2], 4e-9, transition_s=0.3e-9),
        "pwl_one_point": PiecewiseLinear(((5e-9, 0.8),)),
        "chirp": Chirp(),
        "inverted": InvertedPulse(0.0, 1.0, delay_s=3e-9, rise_s=1e-9, fall_s=1e-9, width_s=2e-9),
    }
    for index, (name, waveform) in enumerate(voltages.items()):
        VoltageSource(circuit, name, f"n{index}", "0", waveform)
        Resistor(circuit, f"r{index}", f"n{index}", "0", 1e3)
    CurrentSource(circuit, "i_dc", "0", "n0", 1e-6)
    CurrentSource(
        circuit, "i_pwl", "n1", "0", PiecewiseLinear(((1e-9, 0.0), (2e-9, 3e-6), (9e-9, -1e-6)))
    )
    return circuit


def probe_times(circuit, stop_s=16e-9, step_s=0.25e-9):
    """A fixed-step grid plus every breakpoint and its neighbours on both sides."""
    compiled = get_engine(circuit).compiled
    grid = [np.linspace(0.0, stop_s, int(round(stop_s / step_s)) + 1)]
    for source in compiled.voltage_sources + compiled.current_sources:
        corners = np.array(source.waveform.breakpoints(stop_s), dtype=float)
        grid += [
            corners,
            np.nextafter(corners, -np.inf),
            np.nextafter(corners, np.inf),
            corners - 1e-12,
            corners + 1e-12,
        ]
    return np.concatenate(grid)


class TestSourceTable:
    """The fixed-step march's source table against ``waveform.value``."""

    @pytest.mark.parametrize("scale", [1.0, 0.35])
    def test_rows_are_the_waveform_values_bit_for_bit(self, scale):
        circuit = waveform_zoo()
        compiled = get_engine(circuit).compiled
        times = probe_times(circuit)
        v_table, i_table = compiled._source_table(times, scale)
        assert v_table.shape == (times.size, 8) and i_table.shape == (times.size, 2)
        for row, time_s in enumerate(times.tolist()):
            v_values, i_values = compiled._waveform_values(time_s, scale)
            # tobytes: sign bits count, and -0.0 == 0.0 would hide one.
            assert v_table[row].tobytes() == v_values.tobytes(), time_s
            assert i_table[row].tobytes() == i_values.tobytes(), time_s

    def test_a_circuit_without_sources_has_no_table(self):
        circuit = Circuit("sourceless")
        Resistor(circuit, "r1", "a", "0", 1e3)
        compiled = get_engine(circuit).compiled
        assert compiled._source_table(np.linspace(0.0, 1e-9, 3)) == (None, None)

    def test_only_value_is_called_for_user_waveforms(self, monkeypatch):
        circuit = waveform_zoo()
        compiled = get_engine(circuit).compiled
        times = np.linspace(0.0, 4e-9, 9)
        seen = []
        original = Chirp.value
        monkeypatch.setattr(Chirp, "value", lambda self, t: seen.append(t) or original(self, t))
        compiled._source_table(times)
        assert seen == times.tolist()

    def test_each_step_reads_its_own_row(self, monkeypatch):
        circuit = waveform_zoo()
        engine = get_engine(circuit)
        compiled = engine.compiled
        calls = []
        original = CompiledCircuit._linear_rhs

        def spy(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(CompiledCircuit, "_linear_rhs", spy)
        # From initial conditions: no DC warm start, one Newton call per step.
        result = engine.solve_transient(12e-9, 0.25e-9, use_initial_conditions=True)
        assert len(calls) == result.time_s.size - 1 == 48
        for time_s, args in zip(result.time_s[1:].tolist(), calls):
            v_values, i_values = args[9]  # source_levels
            want_v, want_i = compiled._waveform_values(time_s, 1.0)
            assert v_values.tobytes() == want_v.tobytes(), time_s
            assert i_values.tobytes() == want_i.tobytes(), time_s


def channel_forward(compiled, solution):
    """Each MOSFET's orientation at ``solution``: drain at or above source."""
    padded = np.append(solution, 0.0)
    return padded[compiled.mos_d] >= padded[compiled.mos_s]


class TestKernelReuse:
    """The kernel keeps state between calls — the cached linear bases, the
    stacked position tables, the padding workspace — but every call's
    result must be what a freshly compiled circuit assembles, and no call
    may touch an array an earlier call returned."""

    @pytest.fixture
    def fig11(self, switch_model):
        circuit = build_fig11_bench(model=switch_model).circuit
        rng = np.random.default_rng(29)
        # Strictly positive node voltages: the mirror image -x then flips
        # every channel, those with a grounded terminal included.
        solution = rng.uniform(0.05, 1.2, circuit.system_size)
        compiled = get_engine(circuit).compiled
        assert np.all(channel_forward(compiled, solution) != channel_forward(compiled, -solution))
        return circuit, compiled, solution

    @staticmethod
    def state_at(solution):
        return AnalysisState(
            solution=solution, time_s=5e-9, timestep_s=1e-9,
            previous_solution=0.5 * solution, integration="be", gmin=1e-9,
        )

    @pytest.mark.parametrize("layout", ["dense", "pattern"])
    def test_orientation_flips_match_fresh_assembly(self, fig11, layout):
        circuit, compiled, solution = fig11
        pattern = compiled.sparsity_pattern()
        off_pattern = np.ones((circuit.system_size,) * 2, dtype=bool)
        off_pattern[pattern.rows, pattern.cols] = False
        for point, trials in ((solution, 3), (-solution, 2), (solution, 3)):
            state = self.state_at(point)
            stack = point * np.linspace(1.0, 0.5, trials)[:, None]
            fresh = CompiledCircuit(circuit)
            if layout == "dense":
                got = compiled.assemble(state) + compiled.assemble_batched(
                    stack, gmin=1e-9, timestep_s=1e-9, previous_solutions=0.5 * stack
                )
                want = fresh.assemble(state) + fresh.assemble_batched(
                    stack, gmin=1e-9, timestep_s=1e-9, previous_solutions=0.5 * stack
                )
                assert np.all(got[0][off_pattern] == 0.0)
                assert np.all(got[2][:, off_pattern] == 0.0)
            else:
                got = compiled.assemble_sparse(state) + compiled.assemble_sparse_batched(
                    stack, gmin=1e-9, timestep_s=1e-9, previous_solutions=0.5 * stack
                )
                want = fresh.assemble_sparse(state) + fresh.assemble_sparse_batched(
                    stack, gmin=1e-9, timestep_s=1e-9, previous_solutions=0.5 * stack
                )
            for got_array, want_array in zip(got, want):
                assert np.array_equal(got_array, want_array)

    def test_returned_arrays_are_not_overwritten(self, fig11):
        _, compiled, solution = fig11
        calls = (
            lambda x: compiled.assemble(self.state_at(x)),
            lambda x: compiled.assemble_sparse(self.state_at(x)),
            lambda x: compiled.assemble_batched(np.stack((x, 0.5 * x))),
            lambda x: compiled.assemble_sparse_batched(np.stack((x, 0.5 * x))),
        )
        for call in calls:
            first = call(solution)
            kept = [array.copy() for array in first]
            for later in calls:
                later(-solution)
            for array, copy in zip(first, kept):
                assert np.array_equal(array, copy)

    def test_reuse_workspace_is_gone(self, fig11):
        _, compiled, solution = fig11
        stack = np.stack((solution, 0.5 * solution))
        for assemble in (compiled.assemble_batched, compiled.assemble_sparse_batched):
            with pytest.raises(TypeError):
                assemble(stack, reuse_workspace=True)

    def test_stacked_tables_live_for_one_analysis(self, fig11, monkeypatch):
        # The (trials, 10, M) position tables grow with the stack: a direct
        # stacked assembly builds them for that call only, while an analysis
        # driver keeps them across its rounds and drops them when it returns.
        circuit, compiled, solution = fig11
        table = compiled.sparsity_pattern().mos_csc
        compiled.assemble_batched(np.stack((solution,) * 3))
        compiled.assemble_sparse_batched(np.stack((solution,) * 3))
        assert table._stacked[0].shape[0] == 1
        kept = []
        assemble = compiled.assemble_batched

        def spy(*args, **kwargs):
            result = assemble(*args, **kwargs)
            kept.append(table._stacked[0].shape[0])
            return result

        monkeypatch.setattr(compiled, "assemble_batched", spy)
        stacks = {"mos_vth": np.tile(compiled.mos_vth, (3, 1))}
        get_engine(circuit).solve_dc_batched(params=stacks, solver="dense")
        assert kept and set(kept) == {3}
        assert table._stacked[0].shape[0] == 1
        assert not compiled._hold_stacked


class TestSparseBatchedAssembly:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batched_sparse_matches_batched_dense_bitwise(self, seed):
        # The acceptance property of the sparse assembly migration: the
        # (trials, nnz) stack scattered back to dense must equal the
        # (trials, n, n) dense stack bit for bit, at nonzero sigma, with
        # both a nonlinear (mos_vth) and a linear (resistor_ohm) overlay in
        # play so the shared-base fast path is *not* taken.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "resistor_ohm": Gaussian(0.05, relative=True)},
            seed=seed,
        )
        engine = get_engine(circuit)
        compiled = engine.compiled
        pattern = compiled.sparsity_pattern()
        stacks = mc.sample_stacked_overlays(4)
        op = engine.solve_dc()
        solutions = np.tile(op.solution, (4, 1))
        dense, dense_rhs = compiled.assemble_batched(solutions, stacks)
        data, sparse_rhs = compiled.assemble_sparse_batched(solutions, stacks)
        assert data.shape == (4, pattern.nnz)
        for trial in range(4):
            assert np.array_equal(scatter_dense(pattern, data[trial]), dense[trial])
        assert np.array_equal(sparse_rhs, dense_rhs)

    def test_shared_base_fast_path_matches_dense(self):
        # Only mos_vth varies: the linear part of every trial is the shared
        # nominal base (broadcast, not re-stamped), and must still match
        # the dense batched assembly exactly.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.03)}, seed=3)
        engine = get_engine(circuit)
        compiled = engine.compiled
        pattern = compiled.sparsity_pattern()
        stacks = mc.sample_stacked_overlays(3)
        op = engine.solve_dc()
        solutions = np.tile(op.solution, (3, 1))
        dense, dense_rhs = compiled.assemble_batched(solutions, stacks)
        data, sparse_rhs = compiled.assemble_sparse_batched(solutions, stacks)
        for trial in range(3):
            assert np.array_equal(scatter_dense(pattern, data[trial]), dense[trial])
        assert np.array_equal(sparse_rhs, dense_rhs)

    def test_batched_rows_match_serial_sparse_assembly(self):
        # Row t of the batched stack == the serial sparse assembly with
        # trial t's overlay applied (group-major accumulation mirrored).
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "resistor_ohm": Gaussian(0.05, relative=True)},
            seed=11,
        )
        engine = get_engine(circuit)
        compiled = engine.compiled
        stacks = mc.sample_stacked_overlays(3)
        op = engine.solve_dc()
        solutions = np.tile(op.solution, (3, 1))
        data, rhs = compiled.assemble_sparse_batched(solutions, stacks)
        state = AnalysisState(solution=op.solution, gmin=1e-9)
        try:
            for trial in range(3):
                compiled.set_parameter_overlay(
                    {name: stack[trial] for name, stack in stacks.items()}
                )
                serial_data, serial_rhs = compiled.assemble_sparse(
                    state, cache_base=False
                )
                assert np.array_equal(serial_data, data[trial])
                assert np.array_equal(serial_rhs, rhs[trial])
        finally:
            compiled.clear_parameter_overlay()


@pytest.mark.skipif(not scipy_available(), reason="the sparse backend needs scipy")
class TestSparseBatchedSolves:
    def test_sparse_batched_dc_is_bitwise_serial_sparse(self):
        # Same data stack, same per-trial SuperLU factorization: the
        # lockstep sparse-batched DC and a trial-by-trial sparse solve of
        # the same stack must agree bit for bit.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.02)}, seed=21)
        engine = get_engine(circuit)
        stacks = mc.sample_stacked_overlays(6)
        lockstep = engine.solve_dc_batched(
            stacks, trials=6, refresh=False, solver="sparse-batched"
        )
        serial = engine.solve_dc_batched(
            stacks, trials=6, refresh=False, solver="sparse"
        )
        assert lockstep.all_converged and serial.all_converged
        assert np.array_equal(lockstep.solutions, serial.solutions)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_sigma_sparse_batched_reproduces_nominal(self, seed):
        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        nominal = engine.solve_dc(solver="sparse")
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(sigma=0.0)}, seed=seed)
        batched = mc.run_batched_dc(3, solver="sparse-batched")
        assert batched.all_converged
        for trial in range(3):
            assert np.array_equal(batched.solutions[trial], nominal.solution)

    def test_sparse_batched_matches_dense_batched_dc(self, switch_model):
        bench = build_scalability_bench(4, model=switch_model)
        mc = MonteCarloEngine(
            bench.circuit,
            {"mos_vth": Gaussian(0.010), "mos_beta": Gaussian(0.05, relative=True)},
            seed=7,
        )
        dense = mc.run_batched_dc(8, solver="batched")
        sparse = mc.run_batched_dc(8, solver="sparse-batched")
        assert dense.all_converged and sparse.all_converged
        assert dense.strategies == sparse.strategies
        # LAPACK and SuperLU factor differently, so trials that route
        # through the gmin ladder agree to the Newton tolerance (1e-7 V),
        # not bit for bit — bit-identity holds within one backend family
        # (pinned by the serial-vs-lockstep tests above).
        assert np.allclose(dense.solutions, sparse.solutions, rtol=1e-7, atol=2e-7)

    def test_sparse_batched_matches_dense_batched_transient(self):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.02)}, seed=13)
        dense = mc.run_batched_transient(4, STOP_S, STEP_S, solver="batched")
        sparse = mc.run_batched_transient(4, STOP_S, STEP_S, solver="sparse-batched")
        assert np.allclose(dense.solutions, sparse.solutions, rtol=1e-8, atol=1e-10)

    def test_singular_trials_are_isolated_not_raised(self):
        # Conflicting ideal sources make every trial's system singular: the
        # sparse-batched path must hand each trial to the serial rescue
        # ladders (which report failure) instead of raising out of the
        # batched Newton loop.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        Resistor(circuit, "r1", "a", "0", 1e3)
        batched = get_engine(circuit).solve_dc_batched(
            {"vsource_scale": np.ones((3, 2))},
            max_iterations=30,
            solver="sparse-batched",
        )
        assert not batched.all_converged
        assert all(s == "failed" for s in batched.strategies)

    def test_montecarlo_solver_name_threads_through(self):
        # The MonteCarloEngine wiring accepts the new backend name end to
        # end and produces the same statistics as the dense-batched path.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.03)}, seed=99)
        index = circuit.node_index("d")
        dense = mc.run_batched_dc(5, solver="batched")
        sparse = mc.run_batched_dc(5, solver="sparse-batched")
        assert np.allclose(
            dense.solutions[:, index], sparse.solutions[:, index], atol=1e-10
        )
