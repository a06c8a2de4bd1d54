"""Tests for the solver seam, adaptive transient stepping and batched solves.

The dense LAPACK backend is the reference: the sparse and batched backends
must reproduce its results on the paper's circuits (XOR3 lattice, series
chain) to tight absolute tolerance — and the batched Monte-Carlo path must
match the serial per-trial path *bit for bit*, which the zero-sigma
hypothesis property pins down.
"""

import ctypes
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.circuits import build_scalability_bench, build_series_chain
from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.testbench import InputSequence
from repro.core.library import xor3_lattice_3x3
from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    AutoSolver,
    BatchedDenseSolver,
    BatchedSparseSolver,
    Capacitor,
    Circuit,
    CurrentSource,
    DenseSolver,
    Gaussian,
    LinearSolver,
    MOSFET,
    MonteCarloEngine,
    Resistor,
    SparseSolver,
    VoltageSource,
    available_backends,
    get_engine,
    get_solver,
)
from repro.spice import solvers as solvers_module
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import scipy_available
from repro.spice.waveforms import DC, PiecewiseLinear, Pulse

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="the sparse backend needs the scipy extra"
)

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)


def common_source_circuit():
    circuit = Circuit()
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    VoltageSource(circuit, "vg", "g", "0", 1.2)
    Resistor(circuit, "rl", "vdd", "d", 500e3)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


def toggle_bench(switch_model, step_duration_s=30e-9):
    """The reduced Fig. 11 toggle stimulus (a: 0 -> 1 -> 0, b = c = 0)."""
    sequence = InputSequence.from_assignments(
        ("a", "b", "c"),
        [
            {"a": False, "b": False, "c": False},
            {"a": True, "b": False, "c": False},
            {"a": False, "b": False, "c": False},
        ],
        step_duration_s=step_duration_s,
        high_level_v=1.2,
        transition_s=1e-9,
    )
    return build_lattice_circuit(
        xor3_lattice_3x3(), model=switch_model, input_sequence=sequence
    )


class TestBackendRegistry:
    def test_none_resolves_to_auto(self):
        assert isinstance(get_solver(None), AutoSolver)

    def test_names_resolve(self):
        assert isinstance(get_solver("dense"), DenseSolver)
        assert isinstance(get_solver("batched"), BatchedDenseSolver)

    def test_instance_passes_through(self):
        solver = DenseSolver()
        assert get_solver(solver) is solver

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            get_solver("quantum")
        with pytest.raises(TypeError):
            get_solver(42)

    def test_available_backends_always_has_dense_and_batched(self):
        names = available_backends()
        assert "dense" in names and "batched" in names
        assert ("sparse" in names) == scipy_available()

    def test_engine_per_call_override(self):
        engine = get_engine(common_source_circuit())
        assert engine.solve_dc(solver="batched").converged  # batched solves singly too

    def test_missing_scipy_fails_with_actionable_message(self, monkeypatch):
        def no_scipy():
            raise ImportError("pip install repro[sparse]")

        monkeypatch.setattr(solvers_module, "_import_scipy_sparse", no_scipy)
        assert not scipy_available()
        assert "sparse" not in available_backends()
        with pytest.raises(ImportError, match="sparse"):
            get_solver("sparse")

    def test_default_solve_without_scipy_does_not_warn(self, monkeypatch):
        # The default is "auto", and a small system never wants the sparse
        # backend, so a NumPy-only install solves it silently.
        def no_scipy():
            raise ImportError("pip install repro[sparse]")

        monkeypatch.setattr(solvers_module, "_import_scipy_sparse", no_scipy)
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            assert get_engine(common_source_circuit()).solve_dc().converged


class TestBatchedSolveKernel:
    def test_batched_matches_single_solves_bitwise(self):
        rng = np.random.default_rng(7)
        matrices = rng.normal(size=(6, 9, 9)) + 4.0 * np.eye(9)
        rhs = rng.normal(size=(6, 9))
        dense = DenseSolver()
        batched = BatchedDenseSolver()
        stacked = batched.solve_batched(matrices, rhs)
        looped = dense.solve_batched(matrices, rhs)
        assert np.array_equal(stacked, looped)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            LinearSolver().solve(np.eye(2), np.ones(2))


class _RecordingDense(DenseSolver):
    """The dense backend, keeping a copy of every system it solves."""

    def __init__(self):
        self.systems = []

    def solve(self, matrix, rhs):
        self.systems.append((matrix.copy(), rhs.copy()))
        return super().solve(matrix, rhs)


#: The two routes of the dense solve: the direct gufunc and its fallback.
lapack_routes = pytest.mark.parametrize("route", ["gufunc", "fallback"])


@pytest.fixture(scope="module")
def fig11_systems():
    """Every Newton system of a 120 ns Fig. 11 march (239 of them)."""
    from repro.experiments.fig11_xor3_transient import build_fig11_bench

    recorder = _RecordingDense()
    result = get_engine(build_fig11_bench().circuit).solve_transient(
        120e-9, 1e-9, solver=recorder
    )
    assert result.converged and len(recorder.systems) == result.convergence_info.factorizations > 200
    return recorder.systems


class TestDenseSolveKernel:
    """The dense backends call NumPy's LAPACK gufuncs directly; the answer
    must be ``np.linalg.solve``'s bit for bit, through the gufunc and
    through the ``np.linalg.solve`` fallback alike."""

    @staticmethod
    def use_route(monkeypatch, route):
        """Take the gufunc away for the fallback route; count the wrapper calls."""
        calls = []
        if route == "fallback":
            monkeypatch.setattr(solvers_module, "_umath_linalg", None)
        original = np.linalg.solve

        def counted(*args):
            calls.append(len(args))
            return original(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @lapack_routes
    def test_serial_solves_match_numpy_bit_for_bit(self, fig11_systems, monkeypatch, route):
        want = [np.linalg.solve(matrix, rhs) for matrix, rhs in fig11_systems]
        calls = self.use_route(monkeypatch, route)
        solver = DenseSolver()
        for (matrix, rhs), expected in zip(fig11_systems, want):
            got = solver.solve(matrix, rhs)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert len(calls) == (len(fig11_systems) if route == "fallback" else 0)

    @lapack_routes
    def test_batched_stack_matches_numpy_bit_for_bit(self, fig11_systems, monkeypatch, route):
        matrices = np.stack([matrix for matrix, _ in fig11_systems])
        rhs = np.stack([vector for _, vector in fig11_systems])
        want = np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]
        serial = np.stack([np.linalg.solve(m, r) for m, r in fig11_systems])
        calls = self.use_route(monkeypatch, route)
        got = BatchedDenseSolver().solve_batched(matrices, rhs)
        assert got.shape == rhs.shape and got.tobytes() == want.tobytes()
        assert got.tobytes() == serial.tobytes()
        assert len(calls) == (1 if route == "fallback" else 0)

    def test_a_module_without_the_gufunc_names_falls_back(self, fig11_systems, monkeypatch):
        matrix, rhs = fig11_systems[0]
        want = np.linalg.solve(matrix, rhs)
        monkeypatch.setattr(solvers_module, "_umath_linalg", SimpleNamespace())
        assert DenseSolver().solve(matrix, rhs).tobytes() == want.tobytes()

    @lapack_routes
    def test_singular_systems_raise_without_warning(self, monkeypatch, route):
        import warnings as warnings_module

        self.use_route(monkeypatch, route)
        singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        stack = np.stack([np.eye(3), singular])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                DenseSolver().solve(singular, np.ones(3))
            with pytest.raises(np.linalg.LinAlgError):
                BatchedDenseSolver().solve_batched(stack, np.ones((2, 3)))
            # A regular system right after solves cleanly: the error state
            # does not outlive the singular call.
            assert np.array_equal(DenseSolver().solve(np.eye(3), np.ones(3)), np.ones(3))


class TestBatchedStackRows:
    """A row of a batched dense stack has the same bits wherever it sits
    and however tall the stack is.  The engine's forked row blocks rely on
    this: each block solves a slice of the stack, and the merged result
    must be the whole stack's bit for bit."""

    @staticmethod
    def stack(systems):
        return np.stack([m for m, _ in systems]), np.stack([r for _, r in systems])

    @pytest.mark.parametrize(
        "start, stop", [(0, 31), (0, 32), (0, 33), (7, 40), (64, 128), (120, 239)]
    )
    def test_a_slice_solves_to_the_whole_stacks_bits(self, fig11_systems, start, stop):
        matrices, rhs = self.stack(fig11_systems)
        whole = BatchedDenseSolver().solve_batched(matrices, rhs)
        part = BatchedDenseSolver().solve_batched(matrices[start:stop], rhs[start:stop])
        serial = np.stack(
            [np.linalg.solve(m, r) for m, r in zip(matrices[start:stop], rhs[start:stop])]
        )
        assert part.shape == (stop - start, rhs.shape[1])
        assert part.tobytes() == whole[start:stop].tobytes() == serial.tobytes()

    @pytest.mark.parametrize("row", [3, 60])
    def test_a_singular_row_anywhere_in_the_stack_raises(self, row):
        import warnings as warnings_module

        rng = np.random.default_rng(11)
        matrices = rng.normal(size=(64, 33, 33)) + 8.0 * np.eye(33)
        matrices[row] = np.eye(33)
        matrices[row, 5, 5] = 0.0
        rhs = rng.normal(size=(64, 33))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                BatchedDenseSolver().solve_batched(matrices, rhs)
            # The next stack solves cleanly.
            matrices[row] = np.eye(33)
            got = BatchedDenseSolver().solve_batched(matrices, rhs)
        assert got.tobytes() == np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0].tobytes()

    def test_concurrent_callers_get_the_same_bits(self, fig11_systems):
        # More callers than CPUs, switching threads as often as possible:
        # every caller gets the single-thread bits.
        import threading

        matrices, rhs = self.stack(fig11_systems[:128])
        want = BatchedDenseSolver().solve_batched(matrices, rhs).tobytes()
        callers = 4
        barrier = threading.Barrier(callers)
        results = [[] for _ in range(callers)]

        def caller(slot):
            barrier.wait()
            for _ in range(20):
                results[slot].append(BatchedDenseSolver().solve_batched(matrices, rhs).tobytes())

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[want] * 20] * callers

    def test_a_batched_solve_starts_no_thread(self, fig11_systems):
        import threading

        before = {thread.ident for thread in threading.enumerate()}
        matrices, rhs = self.stack(fig11_systems)
        BatchedDenseSolver().solve_batched(matrices, rhs)
        assert {thread.ident for thread in threading.enumerate()} <= before


@requires_scipy
class TestSparseBackendParity:
    def test_xor3_lattice_dc_parity(self, switch_model):
        bench = build_lattice_circuit(
            xor3_lattice_3x3(),
            model=switch_model,
            static_assignment={"a": True, "b": False, "c": False},
        )
        dense = get_engine(bench.circuit).solve_dc(solver="dense")
        sparse = get_engine(bench.circuit).solve_dc(solver="sparse")
        assert dense.converged and sparse.converged
        assert np.allclose(dense.solution, sparse.solution, rtol=1e-10, atol=1e-12)

    def test_series_chain_dc_parity(self, switch_model):
        chain = build_series_chain(5, model=switch_model)
        engine = get_engine(chain.circuit)
        dense = engine.solve_dc(solver="dense")
        sparse = engine.solve_dc(solver="sparse")
        assert dense.converged and sparse.converged
        assert np.allclose(dense.solution, sparse.solution, rtol=1e-10, atol=1e-14)

    def test_transient_parity_with_capacitors(self):
        def build():
            circuit = Circuit()
            VoltageSource(circuit, "v1", "in", "0", 1.0)
            CurrentSource(circuit, "i1", "0", "out", 1e-7)
            Resistor(circuit, "r1", "in", "out", 1e3)
            Capacitor(circuit, "c1", "out", "0", 1e-9)
            return circuit

        dense = get_engine(build()).solve_transient(
            1e-6, 1e-8, integration="trap", solver="dense"
        )
        sparse = get_engine(build()).solve_transient(
            1e-6, 1e-8, integration="trap", solver="sparse"
        )
        assert np.allclose(dense.solutions, sparse.solutions, rtol=1e-10, atol=1e-12)

    def test_pattern_gather_matches_direct_conversion(self, switch_model):
        # The precomputed CSC pattern must cover every entry the assembly
        # can touch: solving through the pattern and through a plain
        # dense->sparse conversion must agree on a MOSFET-heavy Jacobian.
        bench = build_scalability_bench(4, model=switch_model)
        engine = get_engine(bench.circuit)
        op = engine.solve_dc()
        matrix, rhs = engine.compiled.assemble(
            AnalysisState(solution=op.solution, gmin=1e-9)
        )
        patterned = SparseSolver()
        patterned.bind(engine.compiled)
        fallback = SparseSolver()  # never bound: per-call conversion
        assert np.allclose(
            patterned.solve(matrix, rhs), fallback.solve(matrix, rhs), atol=1e-12
        )

    def test_singular_system_reports_nonconvergence_like_dense(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        op = get_engine(circuit).solve_dc(max_iterations=30, solver="sparse")
        assert not op.converged
        assert op.convergence_info.strategy == "failed"

    def test_bind_is_cached_per_compiled_revision(self):
        circuit = common_source_circuit()
        compiled = get_engine(circuit).compiled
        solver = SparseSolver()
        solver.bind(compiled)
        first = solver._pattern
        solver.bind(compiled)
        assert solver._pattern is first  # unchanged topology: no rebuild
        # The pattern itself is shared with (and cached by) the compiled
        # circuit, so a second solver binds to the identical structure.
        other = SparseSolver()
        other.bind(compiled)
        assert other._pattern is first


class TestAutoSolver:
    def test_auto_is_registered_and_resolves(self):
        assert isinstance(get_solver("auto"), AutoSolver)
        assert "auto" in available_backends()

    def test_small_system_selects_dense(self):
        compiled = get_engine(common_source_circuit()).compiled
        auto = AutoSolver(crossover=300)
        assert isinstance(auto.select(compiled), DenseSolver)
        assert isinstance(auto.select(compiled, trials=4), BatchedDenseSolver)

    @requires_scipy
    def test_large_system_selects_sparse(self):
        compiled = get_engine(common_source_circuit()).compiled
        auto = AutoSolver(crossover=1)
        selected = auto.select(compiled)
        assert isinstance(selected, SparseSolver)
        assert not isinstance(selected, BatchedSparseSolver)
        assert isinstance(auto.select(compiled, trials=4), BatchedSparseSolver)

    def test_selection_boundary_is_at_the_crossover(self):
        compiled = get_engine(common_source_circuit()).compiled
        at = AutoSolver(crossover=compiled.size)
        above = AutoSolver(crossover=compiled.size + 1)
        if scipy_available():
            assert isinstance(at.select(compiled), SparseSolver)
            # One crossover for serial and stacked solves alike.
            assert isinstance(at.select(compiled, trials=2), BatchedSparseSolver)
        assert isinstance(above.select(compiled), DenseSolver)
        assert isinstance(above.select(compiled, trials=2), BatchedDenseSolver)

    def test_env_crossover_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CROSSOVER", "7")
        auto = AutoSolver()
        assert auto.crossover == 7

    def test_recorded_crossovers_from_bench_json(self, tmp_path, monkeypatch):
        # A recorded crossover ledger that would flip every selection to
        # sparse, at each place a BENCH_solvers.json used to be looked up: the
        # policy keeps its default, so the backend cannot depend on what a
        # benchmark run left behind.
        import json

        flipping = {"crossover_size": 1, "batched": {"batched_crossover_size": 1}}
        for directory in ("cwd", "bench_dir", "explicit"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "BENCH_solvers.json").write_text(json.dumps(flipping))
        monkeypatch.chdir(tmp_path / "cwd")
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path / "bench_dir"))
        monkeypatch.setenv(
            "REPRO_BENCH_SOLVERS", str(tmp_path / "explicit" / "BENCH_solvers.json")
        )
        monkeypatch.delenv("REPRO_SOLVER_CROSSOVER", raising=False)
        auto = AutoSolver()
        assert auto.crossover == solvers_module.DEFAULT_DENSE_SPARSE_CROSSOVER == 300
        compiled = get_engine(common_source_circuit()).compiled
        assert isinstance(auto.select(compiled), DenseSolver)
        assert isinstance(auto.select(compiled, trials=3), BatchedDenseSolver)

    def test_missing_bench_json_uses_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SOLVERS", str(tmp_path / "absent.json"))
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        # An unparsable override is ignored, as is an empty one.
        for value in (None, "", "not-a-size"):
            if value is None:
                monkeypatch.delenv("REPRO_SOLVER_CROSSOVER", raising=False)
            else:
                monkeypatch.setenv("REPRO_SOLVER_CROSSOVER", value)
            auto = AutoSolver()
            assert auto.crossover == solvers_module.DEFAULT_DENSE_SPARSE_CROSSOVER

    def test_no_scipy_degrades_to_dense_with_warning(self, monkeypatch):
        def no_scipy():
            raise ImportError("pip install repro[sparse]")

        monkeypatch.setattr(solvers_module, "_import_scipy_sparse", no_scipy)
        compiled = get_engine(common_source_circuit()).compiled
        auto = AutoSolver(crossover=1)
        with pytest.warns(RuntimeWarning, match="scipy"):
            selected = auto.select(compiled)
        assert isinstance(selected, DenseSolver)
        # The warning fires once per AutoSolver, not once per Newton call.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert isinstance(auto.select(compiled, trials=2), BatchedDenseSolver)

    def test_auto_end_to_end_matches_dense(self):
        circuit = common_source_circuit()
        engine = get_engine(circuit)
        auto_op = engine.solve_dc(solver="auto")
        dense_op = engine.solve_dc(solver="dense")
        assert auto_op.converged
        # Below the crossover "auto" *is* the dense backend: bit-identical.
        assert np.array_equal(auto_op.solution, dense_op.solution)

    def test_auto_end_to_end_no_scipy(self, monkeypatch):
        # The no-scipy CI leg's property: solver="auto" must complete (and
        # agree with dense) on a NumPy-only install even above the
        # crossover, warning instead of raising.
        monkeypatch.setattr(solvers_module, "_import_scipy_sparse", lambda: (_ for _ in ()).throw(ImportError("no scipy")))
        circuit = common_source_circuit()
        engine = get_engine(circuit)
        with pytest.warns(RuntimeWarning, match="falling back to the dense backend"):
            op = engine.solve_dc(solver=AutoSolver(crossover=1))
        assert op.converged
        assert np.array_equal(op.solution, engine.solve_dc(solver="dense").solution)

    @requires_scipy
    def test_batched_dc_through_auto(self, switch_model):
        bench = build_scalability_bench(4, model=switch_model)
        mc = MonteCarloEngine(bench.circuit, {"mos_vth": Gaussian(0.005)}, seed=3)
        explicit = mc.run_batched_dc(4, solver="batched")
        auto = mc.run_batched_dc(4, solver=AutoSolver(crossover=10**6))
        # Far below the batched crossover both runs use the dense-batched
        # backend, so the solutions are bit-identical.
        assert np.array_equal(auto.solutions, explicit.solutions)
        sparse_auto = mc.run_batched_dc(4, solver=AutoSolver(crossover=1))
        explicit_sparse = mc.run_batched_dc(4, solver="sparse-batched")
        assert np.array_equal(sparse_auto.solutions, explicit_sparse.solutions)


class TestWaveformBreakpoints:
    def test_dc_has_none(self):
        assert DC(1.0).breakpoints(1.0) == ()

    def test_pulse_corners(self):
        pulse = Pulse(0.0, 1.0, delay_s=1e-9, rise_s=1e-9, fall_s=1e-9, width_s=2e-9)
        assert pulse.breakpoints(10e-9) == (1e-9, 2e-9, 4e-9, 5e-9)

    def test_periodic_pulse_repeats_and_clips(self):
        pulse = Pulse(
            0.0, 1.0, rise_s=1e-9, fall_s=1e-9, width_s=1e-9, period_s=10e-9
        )
        points = pulse.breakpoints(25e-9)
        assert 10e-9 in points and 20e-9 in points
        assert max(points) <= 25e-9

    def test_pwl_returns_its_points(self):
        pwl = PiecewiseLinear.from_pairs([(0.0, 0.0), (1e-9, 1.0), (5e-9, 0.5)])
        assert pwl.breakpoints(2e-9) == (0.0, 1e-9)


class TestAdaptiveTransient:
    def test_rc_charging_accuracy(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            2e-6, 2e-8, use_initial_conditions=True, adaptive=True,
            lte_tolerance_v=1e-3,
        )
        assert result.converged
        exact = 1.0 - np.exp(-1.0)
        assert result.sample_voltage("out", 1e-6) == pytest.approx(exact, abs=0.02)
        info = result.convergence_info
        assert info.strategy == "adaptive"
        assert info.accepted_steps == len(result.time_s) - 1
        assert info.min_step_s <= info.max_step_s
        # The controller must actually have grown the step on the smooth tail.
        assert info.max_step_s > 2e-8

    def test_fixed_step_stats_attached(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            1e-6, 1e-8, use_initial_conditions=True
        )
        info = result.convergence_info
        assert info.strategy == "fixed-step"
        assert info.accepted_steps == 100
        assert info.rejected_steps == 0
        assert info.min_step_s == info.max_step_s == 1e-8
        assert info.acceptance_fraction == 1.0
        assert info.newton_iterations >= info.accepted_steps

    def test_adaptive_waveform_parity_on_fig11_toggle(self, switch_model):
        bench = toggle_bench(switch_model)
        engine = get_engine(bench.circuit)
        stop = bench.input_sequence.total_duration_s
        fixed = engine.solve_transient(stop, 0.5e-9)
        adaptive = engine.solve_transient(
            stop, 1e-9, adaptive=True, lte_tolerance_v=1e-3
        )
        assert fixed.converged and adaptive.converged
        grid = np.linspace(0.0, stop, 181)
        out = bench.output_node
        fixed_v = np.interp(grid, fixed.time_s, fixed.voltage(out))
        adaptive_v = np.interp(grid, adaptive.time_s, adaptive.voltage(out))
        # Pointwise comparison is only meaningful away from the fast edges,
        # where a sub-step timing offset between two discretizations shows
        # up as a large vertical difference; compare where the waveform is
        # locally settled (|dV/dt| below 0.05 V/ns) and via edge metrics.
        slope = np.gradient(fixed_v, grid)
        settled = np.abs(slope) < 0.05e9
        assert settled.sum() > 100
        assert np.max(np.abs(fixed_v[settled] - adaptive_v[settled])) < 0.02

        from repro.analysis.waveform_metrics import edge_times, steady_state_levels

        def metrics(result):
            values = result.voltage(out)
            levels = steady_state_levels(result.time_s, values)
            rises, falls = edge_times(result.time_s, values, levels)
            return levels, rises[0], falls[0]

        fixed_levels, fixed_rise, fixed_fall = metrics(fixed)
        adaptive_levels, adaptive_rise, adaptive_fall = metrics(adaptive)
        assert adaptive_levels.low_v == pytest.approx(fixed_levels.low_v, abs=0.01)
        assert adaptive_levels.high_v == pytest.approx(fixed_levels.high_v, abs=0.01)
        assert adaptive_rise == pytest.approx(fixed_rise, rel=0.10)
        # The 0.5 ns fixed grid itself only coarsely resolves the ~1 ns
        # fall, so the fall delays agree loosely.
        assert adaptive_fall == pytest.approx(fixed_fall, rel=0.5)
        # The controller spends sub-nanosecond steps only on the edges: its
        # total attempt count stays well below the 0.125 ns uniform grid a
        # fixed march needs to resolve the ~1 ns fall edge to the same
        # accuracy (the crossover benchmark quantifies this precisely).
        info = adaptive.convergence_info
        assert info.total_steps < stop / 0.125e-9
        assert info.min_step_s < 0.5e-9 < info.max_step_s

    def test_breakpoints_are_never_stepped_over(self, switch_model):
        bench = toggle_bench(switch_model)
        engine = get_engine(bench.circuit)
        stop = bench.input_sequence.total_duration_s
        adaptive = engine.solve_transient(
            stop, 1e-9, adaptive=True, lte_tolerance_v=5e-3
        )
        corners = engine._waveform_breakpoints(stop)
        assert corners.size  # the PWL stimulus has corners inside the span
        for corner in corners:
            # Every stimulus corner is (within float noise) a time point.
            assert np.min(np.abs(adaptive.time_s - corner)) < 1e-15

    def test_step_clamps_are_honoured(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            1e-6, 1e-8, use_initial_conditions=True, adaptive=True,
            lte_tolerance_v=1e-3, min_timestep_s=5e-9, max_timestep_s=4e-8,
        )
        info = result.convergence_info
        assert info.min_step_s >= 5e-9 - 1e-20 or info.accepted_steps == 0
        assert info.max_step_s <= 4e-8 + 1e-20

    def test_adaptive_validates_controls(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        with pytest.raises(ValueError, match="lte_tolerance_v"):
            get_engine(circuit).solve_transient(
                1e-6, 1e-8, adaptive=True, lte_tolerance_v=0.0
            )
        with pytest.raises(ValueError, match="min_timestep_s"):
            get_engine(circuit).solve_transient(
                1e-6, 1e-8, adaptive=True, min_timestep_s=0.0
            )

    @requires_scipy
    def test_adaptive_with_sparse_backend(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        result = get_engine(circuit).solve_transient(
            2e-6, 2e-8, use_initial_conditions=True, adaptive=True,
            solver="sparse",
        )
        assert result.converged
        exact = 1.0 - np.exp(-1.0)
        assert result.sample_voltage("out", 1e-6) == pytest.approx(exact, abs=0.02)


def drain_metrics(engine, trial):
    op = engine.solve_dc(refresh=False)
    return {"d_v": op.solution[engine.circuit.node_index("d")]}


class TestBatchedMonteCarlo:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_zero_sigma_batched_is_bitwise_serial(self, seed):
        # The acceptance property of the batched migration: at zero spread
        # every batched trial must reproduce the serial per-trial path's
        # result bit for bit — same assembly, same LAPACK routine, same
        # damping arithmetic.
        circuit = common_source_circuit()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(
            circuit,
            {
                "mos_vth": Gaussian(sigma=0.0),
                "mos_beta": Gaussian(sigma=0.0, correlated=True),
            },
            seed=seed,
        )
        serial = mc.run(drain_metrics, trials=3)
        batched = mc.run_batched_dc(3)
        serial_v = np.array([record["d_v"] for record in serial.records])
        assert np.array_equal(batched.solutions[:, index], serial_v)
        assert batched.all_converged

    def test_nonzero_sigma_batched_is_bitwise_serial(self):
        circuit = common_source_circuit()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "mos_beta": Gaussian(0.05, relative=True)},
            seed=1234,
        )
        serial = mc.run(drain_metrics, trials=12)
        batched = mc.run_batched_dc(12)
        serial_v = np.array([record["d_v"] for record in serial.records])
        assert np.array_equal(batched.solutions[:, index], serial_v)

    def test_batched_accessors(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.03)}, seed=5)
        batched = mc.run_batched_dc(6)
        assert len(batched) == 6
        assert batched.voltage("d").shape == (6,)
        assert batched.voltage("0").tolist() == [0.0] * 6
        assert batched.source_current("vdd").shape == (6,)
        point = batched.point(2)
        assert np.shares_memory(point.solution, batched.solutions)
        assert np.array_equal(point.solution, batched.solutions[2])
        assert point.convergence_info.strategy == batched.strategies[2]
        assert set(batched.strategies) <= {
            "batched-newton", "newton", "gmin-stepping", "source-stepping", "failed",
        }

    def test_stacked_overlays_match_per_trial_sampling(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "mos_beta": Gaussian(0.05, relative=True)},
            seed=77,
        )
        stacks = mc.sample_stacked_overlays(4)
        for trial in range(4):
            single = mc.sample_trial_overlay(trial)
            for name, stack in stacks.items():
                assert np.array_equal(stack[trial], single[name])

    def test_batched_composes_with_corner_overlay(self):
        from repro.circuits.corners import Corner, applied_corner

        circuit = common_source_circuit()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(sigma=0.0)}, seed=4)
        with applied_corner(circuit, Corner("SS", 0.9, +0.045)) as engine:
            corner_value = engine.solve_dc().solution[index]
            batched = mc.run_batched_dc(3)
            assert all(v == corner_value for v in batched.solutions[:, index])
            # The corner overlay survives the batched run.
            assert engine.solve_dc().solution[index] == corner_value

    def test_singular_trials_fall_back_to_serial_ladders(self):
        # Conflicting ideal sources: the stacked solve is singular, so every
        # trial must come back through the serial fallback reporting failure
        # instead of raising out of the batched path.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        VoltageSource(circuit, "v2", "a", "0", 2.0)
        Resistor(circuit, "r1", "a", "0", 1e3)
        batched = get_engine(circuit).solve_dc_batched(
            {"vsource_scale": np.ones((3, 2))}, max_iterations=30
        )
        assert not batched.all_converged
        assert all(s == "failed" for s in batched.strategies)

    def test_rescued_trials_match_serial_results(self):
        # A hopeless shared initial guess: batched Newton cannot walk back
        # within its budget, so every trial routes through the serial
        # gmin-stepping rescue — and must land on the true solution.
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        bad_guess = np.full(circuit.system_size, 1e6)
        batched = get_engine(circuit).solve_dc_batched(
            trials=2, initial_guess=bad_guess
        )
        assert batched.all_converged
        assert set(batched.strategies) == {"gmin-stepping"}
        assert batched.voltage("mid") == pytest.approx([1.5, 1.5], abs=1e-3)

    def test_input_validation(self):
        circuit = common_source_circuit()
        engine = get_engine(circuit)
        with pytest.raises(ValueError, match="unknown parameter"):
            engine.solve_dc_batched({"mos_gamma": np.ones((2, 1))})
        with pytest.raises(ValueError, match="expected"):
            engine.solve_dc_batched({"mos_vth": np.ones((2, 3))})
        with pytest.raises(ValueError, match="inconsistent"):
            engine.solve_dc_batched(
                {"mos_vth": np.ones((2, 1)), "resistor_ohm": np.ones((3, 1))}
            )
        with pytest.raises(ValueError, match="trials"):
            engine.solve_dc_batched({})
        with pytest.raises(ValueError, match="initial guess"):
            engine.solve_dc_batched(trials=2, initial_guess=np.zeros(99))

    def test_batched_xor3_lattice_parity(self, switch_model):
        # The acceptance circuit: a >=8-trial XOR3 study through both paths.
        bench = build_lattice_circuit(
            xor3_lattice_3x3(),
            model=switch_model,
            static_assignment={"a": True, "b": False, "c": False},
        )
        circuit = bench.circuit
        nominal = get_engine(circuit).solve_dc()
        index = circuit.node_index(bench.output_node)

        def out_metric(engine, trial, guess=nominal.solution):
            op = engine.solve_dc(initial_guess=guess, refresh=False)
            return {"out_v": op.solution[index]}

        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.010), "mos_beta": Gaussian(0.05, relative=True)},
            seed=7,
        )
        serial = mc.run(out_metric, trials=8)
        batched = mc.run_batched_dc(8, initial_guess=nominal.solution)
        serial_v = [record["out_v"] for record in serial.records]
        assert list(batched.solutions[:, index]) == serial_v


# ---------------------------------------------------------------------- #
# one column order per topology, checked against plain splu
# ---------------------------------------------------------------------- #


class _RecordingLU:
    """An LU wrapper that logs ``(data, rhs, solution)`` for every solve."""

    def __init__(self, lu, data, log):
        self._lu = lu
        self._data = data
        self._log = log

    def solve(self, rhs):
        solution = self._lu.solve(rhs)
        self._log.append((self._data, np.array(rhs, copy=True), solution))
        return solution


def record_sparse_solves(solver):
    """Log every solve through ``solver``'s factorizations.

    Returns a list that fills with ``(data, rhs, solution)`` triples — the
    pattern data the LU was factorized from, the right-hand side and the
    solver's answer — covering plain solves, reuse handles (bypass steps
    included) and stacked solves alike.
    """
    solves = []
    factorize = solver._factorize

    def recording(data):
        return _RecordingLU(factorize(data), np.array(data, copy=True), solves)

    solver._factorize = recording
    return solves


def plain_splu_solve(pattern, data, rhs):
    """The oracle: SciPy's ``splu`` (COLAMD) on the pattern's CSC data."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    shape = (pattern.size, pattern.size)
    return splu(csc_matrix((data, pattern.indices, pattern.indptr), shape=shape)).solve(rhs)


def splu_mismatches(pattern, solves):
    """How many logged solves differ, bit for bit, from plain ``splu``."""
    return sum(
        not np.array_equal(plain_splu_solve(pattern, data, rhs), solution)
        for data, rhs, solution in solves
    )


def zero_state_data(compiled):
    data, _ = compiled.assemble_sparse(
        AnalysisState(solution=np.zeros(compiled.size), gmin=1e-9)
    )
    return data


@requires_scipy
class TestColumnOrder:
    """The sparse backends order each bound pattern once (COLAMD on its
    first factorization) and factorize every later assembly under that
    column order; the oracle in every case is plain ``splu`` on the same
    CSC data, and the answers must match it bit for bit."""

    def test_lattice400_dc_matches_plain_splu_on_every_newton_matrix(self):
        # The scalability DC's n=399 lattice with the default switch model:
        # 66 plain-Newton rounds until the stall rule stops them, then the
        # whole gmin ladder.
        bench = build_scalability_bench(14)
        engine = get_engine(bench.circuit)
        solver = SparseSolver()
        solves = record_sparse_solves(solver)
        op = engine.solve_dc(solver=solver)
        assert op.converged
        assert op.convergence_info.strategy == "gmin-stepping"
        assert engine.compiled.size == 399
        assert len(solves) == op.convergence_info.factorizations == 286
        assert solver._column_order is not None
        assert splu_mismatches(engine.compiled.sparsity_pattern(), solves) == 0

    def test_topology_is_ordered_once(self, switch_model, monkeypatch):
        import scipy.sparse.linalg

        specs = []
        plain = scipy.sparse.linalg.splu

        def counting(matrix, **options):
            specs.append(options.get("permc_spec"))
            return plain(matrix, **options)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        engine = get_engine(build_scalability_bench(6, model=switch_model).circuit)
        op = engine.solve_dc(solver="sparse")
        assert op.converged
        assert len(specs) == op.convergence_info.factorizations > 1
        # One fill-reducing ordering (SciPy's default, COLAMD), then every
        # factorization reuses it.
        assert specs[0] is None
        assert set(specs[1:]) == {"NATURAL"}

    def test_batched_stack_first_call(self, switch_model):
        bench = build_scalability_bench(6, model=switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="sparse")
        stacks = MonteCarloEngine(
            bench.circuit, {"mos_vth": Gaussian(0.002)}, seed=17
        ).sample_stacked_overlays(4)
        # A fresh solver: the stack's first factorization orders the pattern.
        solver = BatchedSparseSolver()
        solves = record_sparse_solves(solver)
        result = engine.solve_dc_batched(
            stacks, trials=4, initial_guess=nominal.solution, refresh=False,
            solver=solver,
        )
        assert bool(np.all(result.converged))
        assert len(solves) > 4
        assert solver._column_order is not None
        assert splu_mismatches(engine.compiled.sparsity_pattern(), solves) == 0

    def test_reuse_handles_and_bypass_steps(self, switch_model):
        engine = get_engine(build_scalability_bench(6, model=switch_model).circuit)
        nominal = engine.solve_dc(solver="sparse")
        solver = SparseSolver()
        solves = record_sparse_solves(solver)
        reuse = engine.solve_dc(
            initial_guess=nominal.solution + 0.05, refresh=False, solver=solver,
            newton="reuse",
        )
        assert reuse.converged
        info = reuse.convergence_info
        # Several fresh factorizations (the later ones under the recorded
        # order) and solves through held handles, bypass steps included.
        assert info.factorizations > 1
        assert info.factorization_reuses > 0
        assert len(solves) == info.factorizations + info.factorization_reuses
        assert splu_mismatches(engine.compiled.sparsity_pattern(), solves) == 0

    def test_rebind_recomputes_the_order(self, switch_model):
        small = get_engine(build_scalability_bench(4, model=switch_model).circuit)
        large = get_engine(build_scalability_bench(6, model=switch_model).circuit)
        solver = SparseSolver()
        solver.bind(small.compiled)
        assert solver._column_order is None
        data = zero_state_data(small.compiled)
        rhs = np.ones(small.compiled.size)
        solver.solve_pattern(data, rhs)
        order = solver._column_order
        assert order.size == small.compiled.size
        solver.bind(small.compiled)  # same topology: kept
        assert solver._column_order is order

        solver.bind(large.compiled)  # another topology
        assert solver._column_order is None
        solver.solve_pattern(zero_state_data(large.compiled), np.ones(large.compiled.size))
        assert solver._column_order.size == large.compiled.size

        # A revision bump recompiles the circuit: the order goes with it.
        circuit = small.circuit
        Resistor(circuit, "r_extra", circuit.node_names[0], "extra", 1e3)
        compiled = small.compiled
        assert compiled.revision == circuit.revision
        solver.bind(compiled)
        assert solver._column_order is None
        solves = record_sparse_solves(solver)
        solver.solve_pattern(zero_state_data(compiled), np.ones(compiled.size))
        assert solver._column_order.size == compiled.size
        solver.solve_pattern(zero_state_data(compiled) * 2.0, np.ones(compiled.size))
        assert splu_mismatches(compiled.sparsity_pattern(), solves) == 0

    def test_singular_first_factorization_leaves_no_order(self):
        compiled = get_engine(common_source_circuit()).compiled
        solver = SparseSolver()
        solver.bind(compiled)
        data = zero_state_data(compiled)
        rhs = np.ones(compiled.size)
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve_pattern(np.zeros_like(data), rhs)
        assert solver._column_order is None
        solves = record_sparse_solves(solver)
        solver.solve_pattern(data, rhs)
        assert solver._column_order is not None
        solver.solve_pattern(data * 3.0, rhs)
        assert splu_mismatches(compiled.sparsity_pattern(), solves) == 0

    def test_singular_trial_raises_before_the_stack_is_counted(self):
        # A singular trial anywhere in the stack raises for the whole
        # stack, and the trials factorized before it are not counted.
        compiled = get_engine(common_source_circuit()).compiled
        pattern = compiled.sparsity_pattern()
        solver = BatchedSparseSolver()
        solver.bind(compiled)
        data = zero_state_data(compiled)
        stack = np.stack([data, data * 2.0, np.zeros_like(data)])
        rhs = np.ones((3, compiled.size))
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve_pattern_batched(stack, rhs)
        assert solver.solver_stats()["factorizations"] == 0
        out = solver.solve_pattern_batched(stack[:2], rhs[:2])
        assert solver.solver_stats()["factorizations"] == 2
        expected = [plain_splu_solve(pattern, d, r) for d, r in zip(stack[:2], rhs[:2])]
        assert np.array_equal(out, np.stack(expected))


# ---------------------------------------------------------------------- #
# the heap thresholds pinned by the first SuperLU factorization
# ---------------------------------------------------------------------- #


def mallopt_resolves():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


#: Minor page faults per factorization of the n=399 scalability lattice,
#: in a fresh interpreter: one factorization (which pins the thresholds),
#: then 50 more under ``getrusage``.
_FAULT_PROBE_SCRIPT = """
import resource
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.circuits import build_scalability_bench
from repro.spice import SparseSolver, get_engine
from repro.spice.netlist import AnalysisState

compiled = get_engine(build_scalability_bench(rows=14).circuit).compiled
assert compiled.size == 399
solver = SparseSolver()
solver.bind(compiled)
data, rhs = compiled.assemble_sparse(
    AnalysisState(solution=np.zeros(compiled.size), gmin=1e-9)
)
solver.solve_pattern(data, rhs)
calls = 50
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    solver.solve_pattern(data, rhs)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / calls)
"""


@requires_scipy
class TestHeapSettling:
    """SuperLU mallocs and frees its workspace on every factorization; the
    process's first factorization pins glibc's mmap and trim thresholds, so
    that workspace comes from reused heap, not freshly faulted pages."""

    @pytest.mark.skipif(not mallopt_resolves(), reason="needs glibc's mallopt")
    def test_fresh_process_factorizations_do_not_fault(self):
        completed = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE_SCRIPT.format(src=SRC_DIR)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert float(completed.stdout) <= 2.0

    def test_first_factorization_pins_the_thresholds_once(self, monkeypatch):
        # A stand-in for ``ctypes.CDLL(None)`` that logs every mallopt call.
        calls = []
        library = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(solvers_module, "_heap_settled", False)
        monkeypatch.setattr(solvers_module.ctypes, "CDLL", lambda name: library)
        compiled = get_engine(common_source_circuit()).compiled
        solver = SparseSolver()
        solver.bind(compiled)
        data = zero_state_data(compiled)
        rhs = np.ones(compiled.size)
        solver.solve_pattern(data, rhs)
        assert calls == [
            (solvers_module._M_MMAP_THRESHOLD, solvers_module._MMAP_THRESHOLD_BYTES),
            (solvers_module._M_TRIM_THRESHOLD, solvers_module._TRIM_THRESHOLD_BYTES),
        ]
        # Later factorizations, by any sparse entry point, leave them be.
        solver.solve_pattern(data, rhs)
        matrix, _ = compiled.assemble(
            AnalysisState(solution=np.zeros(compiled.size), gmin=1e-9)
        )
        SparseSolver().solve(matrix, rhs)
        assert len(calls) == 2

    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch, recwarn):
        monkeypatch.setattr(solvers_module, "_heap_settled", False)
        monkeypatch.setattr(solvers_module.ctypes, "CDLL", lambda name: object())
        compiled = get_engine(common_source_circuit()).compiled
        solver = SparseSolver()
        solver.bind(compiled)
        data = zero_state_data(compiled)
        rhs = np.ones(compiled.size)
        assert np.array_equal(
            solver.solve_pattern(data, rhs),
            plain_splu_solve(compiled.sparsity_pattern(), data, rhs),
        )
        assert solvers_module._heap_settled
        assert len(recwarn) == 0


def weak_bias_chain(stages=4):
    """Reaches source stepping under a 10-iteration Newton budget.

    A 20 nA source into a 1 GOhm bias node settles at 10 V, but the node
    also carries gmin: the gmin ladder's last rung before the target
    (1e-8 S) parks it near 1.8 V, and the final rung cannot cover the
    remaining 8 V in ten 0.6 V-clamped steps.  Source stepping arrives
    from 7.5 V, 2.5 V away.  The bias drives a chain of common-source
    stages, so every Newton round refactorizes.
    """
    circuit = Circuit("weak-bias-chain")
    CurrentSource(circuit, "ib", "0", "bias", 2e-8)
    Resistor(circuit, "rb", "bias", "0", 1e9)
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    gate = "bias"
    for stage in range(stages):
        Resistor(circuit, f"rl{stage}", "vdd", f"d{stage}", 200e3)
        MOSFET(circuit, f"m{stage}", f"d{stage}", gate, "0", NMOS)
        gate = f"d{stage}"
    return circuit


def runaway_node():
    """Fails every rung: 1 mA into a node held only by gmin (1e6 V away)."""
    circuit = Circuit("runaway-node")
    CurrentSource(circuit, "i1", "0", "a", 1e-3)
    VoltageSource(circuit, "v1", "b", "0", 1.0)
    Resistor(circuit, "r1", "b", "c", 1e3)
    MOSFET(circuit, "m1", "c", "b", "0", NMOS)
    return circuit


@requires_scipy
class TestFallbackLadderOracles:
    """Constructed circuits that reach each rung of the DC fallback ladder
    (the n=399 lattice covers gmin stepping in :class:`TestColumnOrder`),
    on the dense and the sparse backend; every sparse solve on every rung
    matches plain ``splu`` bit for bit."""

    @pytest.mark.parametrize(
        "build, max_iterations, strategy",
        [(weak_bias_chain, 10, "source-stepping"), (runaway_node, 20, "failed")],
    )
    def test_strategy_and_sparse_oracle(self, build, max_iterations, strategy):
        dense = get_engine(build()).solve_dc(solver="dense", max_iterations=max_iterations)
        engine = get_engine(build())
        solver = SparseSolver()
        solves = record_sparse_solves(solver)
        sparse = engine.solve_dc(solver=solver, max_iterations=max_iterations)
        for op in (dense, sparse):
            assert op.convergence_info.strategy == strategy
            assert op.converged == (strategy != "failed")
        assert len(solves) == sparse.iterations
        assert splu_mismatches(engine.compiled.sparsity_pattern(), solves) == 0
        assert np.allclose(sparse.solution, dense.solution, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "batched_solver, serial_solver", [("batched", "dense"), ("sparse-batched", "sparse")]
    )
    @pytest.mark.parametrize(
        "build, max_iterations, strategy, iterations",
        [(weak_bias_chain, 10, "source-stepping", 81), (runaway_node, 20, "failed", 240)],
    )
    def test_batched_ladder_is_bitwise_serial(
        self, build, max_iterations, strategy, iterations, batched_solver, serial_solver
    ):
        # The batched ladders run every rung over the stack; each trial must
        # walk the serial ladder's path, failed rung included.
        serial = get_engine(build()).solve_dc(
            solver=serial_solver, max_iterations=max_iterations
        )
        batched = get_engine(build()).solve_dc_batched(
            trials=3, solver=batched_solver, max_iterations=max_iterations
        )
        assert serial.convergence_info.strategy == strategy
        assert serial.iterations == iterations
        if strategy == "failed":
            assert serial.max_residual == pytest.approx(999940.6, rel=1e-9)
        assert batched.strategies == (strategy,) * 3
        for trial in range(3):
            assert np.array_equal(batched.solutions[trial], serial.solution)
            assert batched.iterations[trial] == serial.iterations
            assert batched.max_residuals[trial] == serial.max_residual

    def test_source_stepping_lands_on_the_newton_answer(self):
        # With the default budget plain Newton converges on its own; the
        # ladder under the tight budget must reach the same point.
        reference = get_engine(weak_bias_chain()).solve_dc(solver="sparse")
        assert reference.convergence_info.strategy == "newton"
        stepped = get_engine(weak_bias_chain()).solve_dc(solver="sparse", max_iterations=10)
        assert stepped.voltage("bias") == pytest.approx(10.0, rel=1e-6)
        assert np.allclose(stepped.solution, reference.solution, rtol=1e-7, atol=1e-9)
