"""Tests for factorization reuse across the Newton/transient hot path.

Three layers are pinned down here:

* the sparse backends' counters — full Newton factorizes every solve, a
  bitwise-repeated one included, and the solver's monotonic counters
  record the split between factorizations and reuses;
* ``newton="reuse"`` — modified Newton that holds the last factorization
  while the residual keeps contracting: bit-identical on linear circuits,
  within the Newton voltage tolerance on nonlinear ones, strictly fewer
  factorizations on the sparse backends;
* the counter surfacing — ``ConvergenceInfo`` through ``Result`` /
  ``ResultSet`` / ``RunStats``, the JSON roundtrip, and the spec-hash
  stability of the ``newton=`` knob (the default must hash exactly like
  specs written before the knob existed).
"""

import numpy as np
import pytest

from repro.api import (
    CircuitSpec,
    DCOp,
    DCSweep,
    MonteCarlo,
    Result,
    Session,
    Transient,
    canonical,
    spec_hash,
)
from repro.circuits import build_scalability_bench
from repro.spice import (
    Capacitor,
    Circuit,
    Gaussian,
    MonteCarloEngine,
    Resistor,
    SparseSolver,
    VoltageSource,
    get_engine,
)
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import scipy_available

requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="the sparse backend needs the scipy extra"
)

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"


@pytest.fixture()
def chain_spec(switch_model):
    return CircuitSpec(
        CHAIN_FACTORY, params={"num_switches": 3, "model": switch_model}
    )


def divider():
    """A purely linear circuit: Newton converges in one round."""
    circuit = Circuit("divider")
    VoltageSource(circuit, "vin", "in", "0", 1.2)
    Resistor(circuit, "r1", "in", "out", 1e3)
    Resistor(circuit, "r2", "out", "0", 1e3)
    return circuit


def rc_circuit():
    """A linear RC: the transient Jacobian is constant step to step."""
    circuit = Circuit("rc")
    VoltageSource(circuit, "vin", "in", "0", 1.2)
    Resistor(circuit, "r1", "in", "out", 10e3)
    Capacitor(circuit, "c1", "out", "0", 1e-12)
    return circuit


def mos_bench(switch_model):
    """A small nonlinear bench (scalability lattice, sparse-friendly)."""
    return build_scalability_bench(4, model=switch_model)


# ---------------------------------------------------------------------- #
# full-Newton solves always factorize
# ---------------------------------------------------------------------- #


@requires_scipy
class TestSolvePatternCounters:
    """``solve_pattern`` factorizes every call; no LU outlives its solve."""

    def _bound_system(self, switch_model):
        bench = mos_bench(switch_model)
        engine = get_engine(bench.circuit)
        op = engine.solve_dc()
        assert op.converged
        state = AnalysisState(solution=op.solution, gmin=1e-9)
        data, rhs = engine.compiled.assemble_sparse(state, cache_base=False)
        solver = SparseSolver()
        solver.bind(engine.compiled)
        return solver, data, rhs

    def test_bitwise_unchanged_assembly_factorizes_again(self, switch_model):
        solver, data, rhs = self._bound_system(switch_model)
        before = solver.solver_stats()
        first = solver.solve_pattern(data, rhs)
        mid = solver.solver_stats()
        assert mid["factorizations"] == before["factorizations"] + 1
        second = solver.solve_pattern(data, rhs)
        after = solver.solver_stats()
        # The repeat solve of bitwise-unchanged data factorizes again — one
        # more factorization, no reuse — and the LU, a pure function of the
        # matrix, gives a bit-identical answer.
        assert after["factorizations"] == mid["factorizations"] + 1
        assert after["factorization_reuses"] == mid["factorization_reuses"] == 0
        assert np.array_equal(first, second)

    def test_changed_assembly_factorizes_again(self, switch_model):
        solver, data, rhs = self._bound_system(switch_model)
        solver.solve_pattern(data, rhs)
        mid = solver.solver_stats()
        perturbed = data.copy()
        perturbed[0] *= 1.0 + 1e-9
        solver.solve_pattern(perturbed, rhs)
        after = solver.solver_stats()
        assert after["factorizations"] == mid["factorizations"] + 1

    def test_counters_are_monotonic_ints(self, switch_model):
        solver, data, rhs = self._bound_system(switch_model)
        stats = solver.solver_stats()
        assert set(stats) == {"factorizations", "factorization_reuses"}
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())


@pytest.mark.parametrize(
    "solver",
    [
        "dense",
        "batched",
        pytest.param("sparse", marks=requires_scipy),
        pytest.param("sparse-batched", marks=requires_scipy),
    ],
)
def test_full_newton_factorizes_every_round(solver):
    # Full Newton on a linear circuit: every backend factorizes once per
    # Newton round and reuses nothing, even though every transient step
    # assembles the same Jacobian.
    engine = get_engine(rc_circuit())
    warm_start = engine.solve_dc(time_s=0.0, solver=solver)
    march = engine.solve_transient(100e-9, 1e-9, solver=solver)
    assert warm_start.converged and march.converged
    dc, info = warm_start.convergence_info, march.convergence_info
    assert (dc.factorizations, dc.factorization_reuses) == (warm_start.iterations, 0)
    assert info.factorization_reuses == 0
    assert info.factorizations == info.newton_iterations + warm_start.iterations


# ---------------------------------------------------------------------- #
# newton="reuse" — serial DC and transient
# ---------------------------------------------------------------------- #


class TestNewtonReuseDC:
    def test_linear_circuit_is_bit_identical(self):
        # One Newton round either way: the reuse path's first action is a
        # fresh factorization, so a linear circuit cannot diverge.
        engine = get_engine(divider())
        full = engine.solve_dc()
        reuse = engine.solve_dc(newton="reuse")
        assert full.converged and reuse.converged
        assert np.array_equal(full.solution, reuse.solution)

    def test_newton_knob_validated(self):
        engine = get_engine(divider())
        with pytest.raises(ValueError, match="newton"):
            engine.solve_dc(newton="bogus")

    @requires_scipy
    def test_mos_dc_fewer_factorizations_within_tolerance(self, switch_model):
        bench = mos_bench(switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="sparse")
        assert nominal.converged
        # A mildly perturbed warm start leaves several Newton rounds to
        # run — the territory where holding the LU pays.
        guess = nominal.solution + 0.05
        full = engine.solve_dc(
            initial_guess=guess, refresh=False, solver="sparse"
        )
        reuse = engine.solve_dc(
            initial_guess=guess, refresh=False, solver="sparse", newton="reuse"
        )
        assert full.converged and reuse.converged
        assert np.max(np.abs(full.solution - reuse.solution)) < 1e-5
        assert reuse.convergence_info.factorizations < full.convergence_info.factorizations
        assert reuse.convergence_info.factorization_reuses > 0

    def test_full_spelling_matches_default(self):
        engine = get_engine(divider())
        default = engine.solve_dc()
        explicit = engine.solve_dc(newton="full")
        assert np.array_equal(default.solution, explicit.solution)


@requires_scipy
class TestNewtonReuseTransient:
    def test_constant_jacobian_march_reuses_under_reuse_mode(self):
        # A linear RC on a fixed grid assembles the same Jacobian every
        # step.  Full Newton refactors it each step; newton="reuse" solves
        # the bitwise-unchanged system through its held LU.
        engine = get_engine(rc_circuit())
        default = engine.solve_transient(100e-9, 1e-9, solver="sparse")
        reuse = engine.solve_transient(
            100e-9, 1e-9, solver="sparse", newton="reuse"
        )
        assert default.converged and reuse.converged
        counts = [
            (r.convergence_info.factorizations, r.convergence_info.factorization_reuses)
            for r in (default, reuse)
        ]
        # One round per step after a three-round DC warm start: 103
        # factorizations by default.  The reuse march pays the warm start
        # (always full Newton) and the first step, then serves the 99 later
        # steps through the held LU.
        assert counts == [(103, 0), (4, 99)]

    def test_reuse_mode_bit_identical_on_linear_transient(self):
        engine = get_engine(rc_circuit())
        default = engine.solve_transient(100e-9, 1e-9, solver="sparse")
        reuse = engine.solve_transient(
            100e-9, 1e-9, solver="sparse", newton="reuse"
        )
        assert default.converged and reuse.converged
        assert np.array_equal(default.solutions, reuse.solutions)


# ---------------------------------------------------------------------- #
# batched reuse
# ---------------------------------------------------------------------- #


@requires_scipy
class TestBatchedNewtonReuse:
    def test_batched_dc_reuse_parity_and_counts(self, switch_model):
        bench = mos_bench(switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="sparse")
        assert nominal.converged
        mc = MonteCarloEngine(bench.circuit, {"mos_vth": Gaussian(0.002)}, seed=29)
        stacks = mc.sample_stacked_overlays(8)
        kwargs = dict(
            trials=8, initial_guess=nominal.solution, refresh=False,
            solver="sparse-batched",
        )
        full = engine.solve_dc_batched(stacks, **kwargs)
        reuse = engine.solve_dc_batched(stacks, newton="reuse", **kwargs)
        assert bool(np.all(full.converged)) and bool(np.all(reuse.converged))
        assert np.max(np.abs(full.solutions - reuse.solutions)) < 1e-5
        assert reuse.factorizations < full.factorizations
        assert reuse.factorization_reuses > 0

    @pytest.mark.parametrize("stacked_solver", ["sparse", "sparse-batched"])
    def test_stacked_reuse_matches_per_trial_runs(self, switch_model, stacked_solver):
        # The stacked run takes newton="reuse" on either sparse backend,
        # trial for trial the same rounds as a per-trial solve_dc.
        bench = build_scalability_bench(6, model=switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="sparse")
        guess = nominal.solution + 0.05
        mc = MonteCarloEngine(bench.circuit, {"mos_vth": Gaussian(0.002)}, seed=29)
        stacks = mc.sample_stacked_overlays(4)
        stacked = engine.solve_dc_batched(
            stacks, trials=4, initial_guess=guess, refresh=False,
            solver=stacked_solver, newton="reuse",
        )
        references = []
        for vth in stacks["mos_vth"]:
            engine.compiled.set_parameter_overlay({"mos_vth": vth})
            try:
                references.append(
                    engine.solve_dc(
                        initial_guess=guess, refresh=False, solver="sparse",
                        newton="reuse",
                    )
                )
            finally:
                engine.compiled.clear_parameter_overlay()
        assert np.array_equal(
            stacked.solutions, np.array([r.solution for r in references])
        )
        assert stacked.iterations.tolist() == [r.iterations for r in references]
        assert stacked.factorizations == sum(
            r.convergence_info.factorizations for r in references
        )
        assert stacked.factorization_reuses == sum(
            r.convergence_info.factorization_reuses for r in references
        )

    def test_batched_transient_reuse_counts(self, switch_model):
        bench = mos_bench(switch_model)
        engine = get_engine(bench.circuit)
        mc = MonteCarloEngine(bench.circuit, {"mos_vth": Gaussian(0.002)}, seed=7)
        stacks = mc.sample_stacked_overlays(3)
        kwargs = dict(trials=3, solver="sparse-batched")
        full = engine.solve_transient_batched(20e-9, 1e-9, stacks, **kwargs)
        reuse = engine.solve_transient_batched(
            20e-9, 1e-9, stacks, newton="reuse", **kwargs
        )
        assert bool(np.all(full.converged)) and bool(np.all(reuse.converged))
        assert np.max(np.abs(full.solutions - reuse.solutions)) < 1e-3
        assert reuse.factorizations < full.factorizations
        assert reuse.factorization_reuses > 0


# ---------------------------------------------------------------------- #
# counter surfacing — Result / ResultSet / RunStats / JSON roundtrip
# ---------------------------------------------------------------------- #


class TestCounterSurfacing:
    def test_dcop_result_carries_counts(self, chain_spec):
        session = Session(store=None)
        result = session.run(DCOp(circuit=chain_spec))
        assert "factorizations" in result.convergence
        assert "factorization_reuses" in result.convergence
        # The dense default backend factors once per Newton solve, so a
        # converged DC operating point always records at least one.
        assert result.factorizations >= 1
        assert session.last_stats.factorizations == result.factorizations
        assert (
            session.last_stats.factorization_reuses == result.factorization_reuses
        )

    def test_counts_survive_the_json_roundtrip(self, chain_spec):
        result = Session(store=None).run(DCOp(circuit=chain_spec))
        restored = Result.from_json(result.to_json())
        assert restored.factorizations == result.factorizations
        assert restored.factorization_reuses == result.factorization_reuses

    def test_resultset_sums_over_results(self, chain_spec):
        session = Session(store=None)
        study = session.run_many(
            [DCOp(circuit=chain_spec), DCOp(circuit=chain_spec, gmin=1e-8)]
        )
        assert study.factorizations == sum(r.factorizations for r in study)
        assert study.factorization_reuses == sum(
            r.factorization_reuses for r in study
        )

    def test_montecarlo_result_carries_counts(self, chain_spec):
        spec = MonteCarlo(
            circuit=chain_spec,
            perturbations={"mos_vth": Gaussian(sigma=0.01)},
            trials=4,
            seed=3,
        )
        result = Session(store=None).run(spec)
        assert result.factorizations >= 1

    def test_transient_result_carries_counts(self, chain_spec):
        result = Session(store=None).run(
            Transient(circuit=chain_spec, stop_time_s=5e-9, timestep_s=1e-9)
        )
        assert result.factorizations >= 1


# ---------------------------------------------------------------------- #
# spec-hash stability and validation of the new knobs
# ---------------------------------------------------------------------- #


class TestSpecHashStability:
    def test_newton_default_hashes_like_pre_knob_specs(self, chain_spec):
        # Both default spellings are omitted from the canonical form, so
        # every hash computed before the knob existed stays valid.
        default = DCOp(circuit=chain_spec)
        explicit_none = DCOp(circuit=chain_spec, newton=None)
        explicit_full = DCOp(circuit=chain_spec, newton="full")
        assert (
            spec_hash(default)
            == spec_hash(explicit_none)
            == spec_hash(explicit_full)
        )
        assert "newton" not in canonical(default)["fields"]

    def test_newton_reuse_is_a_distinct_identity(self, chain_spec):
        assert spec_hash(DCOp(circuit=chain_spec, newton="reuse")) != spec_hash(
            DCOp(circuit=chain_spec)
        )

    def test_montecarlo_default_hash_is_pinned(self, chain_spec):
        # The literal was computed before the threads field was deleted; an
        # unset threads= never entered the hash, so no stored entry moves.
        default = MonteCarlo(
            circuit=chain_spec,
            perturbations={"mos_vth": Gaussian(sigma=0.01)},
            trials=4,
            seed=3,
        )
        assert spec_hash(default) == (
            "095cbe6c88d4cfad0dd2d1f5463531f41aa541744ca1bc5121074b03f7b4e659"
        )

    @requires_scipy
    def test_solver_none_and_auto_are_one_computation(self, chain_spec):
        # The two spellings share a hash, so a caching Session serves either
        # for both: they must run the same policy.
        base = dict(
            circuit=chain_spec,
            perturbations={"mos_vth": Gaussian(sigma=0.01)},
            trials=4,
            seed=3,
        )
        implicit = MonteCarlo(solver=None, **base)
        auto = MonteCarlo(solver="auto", **base)
        assert spec_hash(implicit) == spec_hash(auto)
        session = Session(store=None)
        implicit_result, auto_result = session.run(implicit), session.run(auto)
        assert implicit_result.arrays.keys() == auto_result.arrays.keys()
        for name, array in auto_result.arrays.items():
            assert np.array_equal(implicit_result.arrays[name], array), name
        assert implicit_result.convergence == auto_result.convergence

    def test_newton_knob_on_every_analysis_spec(self, chain_spec):
        for spec in (
            DCOp(circuit=chain_spec, newton="reuse"),
            DCSweep(
                circuit=chain_spec,
                source="vin",
                values=(1.0, 1.2),
                newton="reuse",
            ),
            Transient(
                circuit=chain_spec,
                stop_time_s=1e-9,
                timestep_s=1e-10,
                newton="reuse",
            ),
        ):
            assert canonical(spec)["fields"]["newton"] == "reuse"

    def test_validation_rejects_bad_knobs(self, chain_spec):
        with pytest.raises(ValueError, match="newton"):
            DCOp(circuit=chain_spec, newton="bogus")
        base = dict(
            circuit=chain_spec,
            perturbations={"mos_vth": Gaussian(sigma=0.01)},
            trials=2,
        )
        # The removed thread-pool knob is no longer a spec field.
        with pytest.raises(TypeError, match="threads"):
            MonteCarlo(threads=2, **base)
