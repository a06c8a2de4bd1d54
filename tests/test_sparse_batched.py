"""Tests for pattern assembly, dense placement and the sparse-batched path.

Every assembly scatters element stamps into the precomputed CSC pattern
(serial ``(nnz,)`` or stacked ``(trials, nnz)``); the dense assemblies
place that data into zeroed matrices.  The per-element ``stamp()`` path
(``Circuit.assemble``) is the oracle for the placed matrices, every dense
entry off the pattern must be exactly zero, and dense, sparse, serial and
batched results must agree *bit for bit* at zero and nonzero sigma, for DC
and transient companion states.  At the solve level the sparse-batched
backend must match the serial sparse backend bit for bit (identical data,
identical per-trial factorizations) and the dense-batched reference to
tight tolerance.
"""

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
    Gaussian,
    MOSFET,
    MonteCarloEngine,
    Pulse,
    Resistor,
    VoltageSource,
    get_engine,
)
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import scipy_available

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


def with_cap_history(circuit, rng):
    """Give every capacitor a nonzero trapezoidal history current."""
    for element in circuit.elements:
        if isinstance(element, Capacitor):
            element._previous_current = float(rng.uniform(-1e-6, 1e-6))
    return circuit


class TestDensePlacement:
    @pytest.mark.parametrize("kind", ["dc", "be", "trap"])
    def test_fig11_placement_matches_stamp_oracle(self, switch_model, kind):
        rng = np.random.default_rng(5)
        circuit = with_cap_history(build_fig11_bench(model=switch_model).circuit, rng)
        compiled = get_engine(circuit).compiled
        state = analysis_state(circuit, kind, rng)
        matrix, rhs = compiled.assemble(state)
        oracle = circuit.assemble(state)
        assert np.allclose(matrix, oracle.matrix, rtol=1e-12, atol=1e-18)
        assert np.allclose(rhs, oracle.rhs, rtol=1e-12, atol=1e-18)
        # Off the pattern the placed matrix is exactly zero.
        pattern = compiled.sparsity_pattern()
        on_pattern = np.zeros(matrix.shape, dtype=bool)
        on_pattern[pattern.rows, pattern.cols] = True
        assert np.all(matrix[~on_pattern] == 0.0)
        # On it, the placed entries are the sparse assembly bit for bit.
        data, sparse_rhs = compiled.assemble_sparse(state)
        assert np.array_equal(matrix[pattern.rows, pattern.cols], data)
        assert np.array_equal(rhs, sparse_rhs)

    @pytest.mark.parametrize("kind", ["dc", "be", "trap"])
    def test_batched_rows_match_serial_dense_assembly(self, switch_model, kind):
        # Row t of the placed stack == the serial dense assembly with trial
        # t's overlay, bit for bit, with a linear overlay (resistor_ohm) in
        # play so the per-trial base path is taken too.
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
        solutions = state.solution + rng.uniform(-0.05, 0.05, (3, circuit.system_size))
        history = rng.uniform(-1e-6, 1e-6, (3, compiled.num_capacitors))
        transient = kind != "dc"
        matrices, rhs = compiled.assemble_batched(
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
                serial, serial_rhs = compiled.assemble(
                    trial_state, cap_history=history[trial], cache_base=False
                )
                assert np.array_equal(serial, matrices[trial])
                assert np.array_equal(serial_rhs, rhs[trial])
        finally:
            compiled.clear_parameter_overlay()


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
