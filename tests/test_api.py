"""Tests of the unified ``repro.api`` Study/Session layer.

Covers the acceptance criteria of the API redesign:

* every analysis kind (DC op, DC sweep, transient incl. adaptive,
  Monte-Carlo DC incl. batched, corners) runs through ``Session.run`` /
  ``run_many`` with results bit-identical to the engine methods;
* content hashing is semantic (kwarg order, default-vs-explicit,
  sequence-type normalization) — property-tested with hypothesis;
* the content-hash cache serves unchanged specs with zero Newton
  iterations performed, in memory and from the on-disk JSON store;
* ``ResultSet`` JSON round-trips bitwise, including a transient result
  with its ``TransientConvergenceInfo`` attached;
* the executor seam fans any spec kind across processes with bit-identical
  results.
"""

from __future__ import annotations

import json
import os
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    MonteCarlo,
    Result,
    ResultSet,
    Session,
    Transient,
    expand_grid,
    spec_hash,
)
from repro.circuits.corners import run_corners
from repro.circuits.series_chain import build_series_chain
from repro.experiments.variability_xor3 import build_variability_bench
from repro.spice import MonteCarloEngine, Gaussian
from repro.spice.engine import get_engine
from repro.spice.transient import TransientConvergenceInfo

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"


@pytest.fixture()
def chain_spec(switch_model):
    return CircuitSpec(
        CHAIN_FACTORY, params={"num_switches": 3, "model": switch_model}
    )


@pytest.fixture()
def bench_spec(switch_model):
    return CircuitSpec(
        build_variability_bench,
        params={"model": switch_model, "step_duration_s": 20e-9},
    )


# ---------------------------------------------------------------------- #
# content hashing
# ---------------------------------------------------------------------- #


class TestSpecHashing:
    def test_default_vs_explicit_hash_identically(self, chain_spec):
        implicit = DCOp(circuit=chain_spec)
        explicit = DCOp(
            circuit=chain_spec,
            max_iterations=300,
            tolerance_v=1e-7,
            gmin=1e-9,
            damping_v=0.6,
            time_s=0.0,
            solver=None,
        )
        assert spec_hash(implicit) == spec_hash(explicit)

    def test_auto_solver_default_hashes_like_legacy_none(self, chain_spec):
        # The spec default moved from solver=None to solver="auto"; the two
        # spellings must hash identically so every cache entry computed
        # before the default changed stays valid.  An explicit concrete
        # backend is a different computation identity.
        default = DCOp(circuit=chain_spec)
        legacy = DCOp(circuit=chain_spec, solver=None)
        auto = DCOp(circuit=chain_spec, solver="auto")
        assert spec_hash(default) == spec_hash(legacy) == spec_hash(auto)
        assert spec_hash(DCOp(circuit=chain_spec, solver="dense")) != spec_hash(default)

    def test_kwarg_order_cannot_matter(self, chain_spec):
        forward = dict(gmin=1e-8, tolerance_v=1e-6, max_iterations=50)
        backward = dict(max_iterations=50, tolerance_v=1e-6, gmin=1e-8)
        assert spec_hash(DCOp(circuit=chain_spec, **forward)) == spec_hash(
            DCOp(circuit=chain_spec, **backward)
        )

    def test_circuit_params_order_cannot_matter(self, switch_model):
        a = CircuitSpec(
            CHAIN_FACTORY, params={"num_switches": 3, "model": switch_model}
        )
        b = CircuitSpec(
            CHAIN_FACTORY, params={"model": switch_model, "num_switches": 3}
        )
        assert spec_hash(a) == spec_hash(b)

    def test_callable_and_path_factories_hash_identically(self, switch_model):
        by_path = CircuitSpec(
            CHAIN_FACTORY, params={"num_switches": 2, "model": switch_model}
        )
        by_callable = CircuitSpec(
            build_series_chain, params={"num_switches": 2, "model": switch_model}
        )
        assert spec_hash(by_path) == spec_hash(by_callable)

    def test_sweep_value_container_normalizes(self, chain_spec):
        as_list = DCSweep(circuit=chain_spec, source="v_drive", values=[0.0, 0.5, 1.0])
        as_tuple = DCSweep(circuit=chain_spec, source="v_drive", values=(0.0, 0.5, 1.0))
        as_array = DCSweep(
            circuit=chain_spec, source="v_drive", values=np.linspace(0.0, 1.0, 3)
        )
        assert spec_hash(as_list) == spec_hash(as_tuple) == spec_hash(as_array)

    def test_changed_knob_changes_hash(self, chain_spec):
        assert spec_hash(DCOp(circuit=chain_spec)) != spec_hash(
            DCOp(circuit=chain_spec, gmin=1e-8)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        gmin=st.floats(1e-15, 1e-3, allow_nan=False),
        tolerance=st.floats(1e-12, 1e-3, allow_nan=False),
        iterations=st.integers(1, 1000),
    )
    def test_semantically_equal_specs_hash_identically(
        self, gmin, tolerance, iterations
    ):
        # Built without a heavyweight fixture so hypothesis can re-run it
        # freely: the circuit spec itself is pure data until built.
        circuit = CircuitSpec(CHAIN_FACTORY, params={"num_switches": 1})
        sparse_kwargs = dict(
            gmin=gmin, tolerance_v=tolerance, max_iterations=iterations
        )
        dense = DCOp(
            circuit=circuit,
            max_iterations=iterations,
            tolerance_v=tolerance,
            gmin=gmin,
            damping_v=0.6,
            time_s=0.0,
            solver=None,
        )
        assert spec_hash(DCOp(circuit=circuit, **sparse_kwargs)) == spec_hash(dense)

    def test_lambda_factory_is_rejected(self):
        spec = CircuitSpec(CHAIN_FACTORY, params={"closure": lambda: None})
        with pytest.raises(TypeError, match="module-level"):
            spec_hash(spec)

    def test_solver_instances_are_rejected(self, chain_spec):
        from repro.spice.solvers import DenseSolver

        with pytest.raises(TypeError, match="backend name"):
            DCOp(circuit=chain_spec, solver=DenseSolver())


# ---------------------------------------------------------------------- #
# parity with the legacy entry points (per analysis kind)
# ---------------------------------------------------------------------- #


class TestLegacyParity:
    def test_dcop_bit_identical(self, chain_spec, switch_model):
        result = Session(store=None).run(DCOp(circuit=chain_spec))
        legacy = get_engine(
            build_series_chain(3, model=switch_model).circuit
        ).solve_dc()
        np.testing.assert_array_equal(result.arrays["solution"], legacy.solution)
        assert result.scalars["iterations"] == legacy.iterations
        assert result.scalars["strategy"] == legacy.convergence_info.strategy

    def test_dcsweep_bit_identical(self, chain_spec, switch_model):
        values = np.linspace(0.0, 1.2, 7)
        result = Session(store=None).run(
            DCSweep(circuit=chain_spec, source="v_drive", values=values)
        )
        legacy = get_engine(
            build_series_chain(3, model=switch_model).circuit
        ).dc_sweep("v_drive", values)
        np.testing.assert_array_equal(result.arrays["solutions"], legacy.solutions)
        np.testing.assert_array_equal(result.arrays["values"], legacy.values)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_transient_bit_identical(self, bench_spec, switch_model, adaptive):
        result = Session(store=None).run(
            Transient(circuit=bench_spec, timestep_s=1e-9, adaptive=adaptive)
        )
        bench = build_variability_bench(model=switch_model, step_duration_s=20e-9)
        legacy = get_engine(bench.circuit).solve_transient(
            bench.input_sequence.total_duration_s, 1e-9, adaptive=adaptive
        )
        np.testing.assert_array_equal(result.arrays["time_s"], legacy.time_s)
        np.testing.assert_array_equal(result.arrays["solutions"], legacy.solutions)
        assert result.convergence_info == legacy.convergence_info

    def test_montecarlo_batched_bit_identical(self, chain_spec, switch_model):
        perturbations = {"mos_vth": Gaussian(sigma=0.03)}
        result = Session(store=None).run(
            MonteCarlo(
                circuit=chain_spec, perturbations=perturbations, trials=12, seed=7
            )
        )
        legacy = MonteCarloEngine(
            build_series_chain(3, model=switch_model).circuit, perturbations, seed=7
        ).run_batched_dc(12)
        np.testing.assert_array_equal(result.arrays["solutions"], legacy.solutions)
        np.testing.assert_array_equal(result.arrays["iterations"], legacy.iterations)
        assert tuple(result.convergence["strategies"]) == legacy.strategies

    def test_montecarlo_per_trial_matches_batched(self, chain_spec):
        perturbations = {"mos_vth": Gaussian(sigma=0.03)}
        session = Session(store=None)
        batched = session.run(
            MonteCarlo(
                circuit=chain_spec, perturbations=perturbations, trials=10, seed=3
            )
        )
        per_trial = session.run(
            MonteCarlo(
                circuit=chain_spec,
                perturbations=perturbations,
                trials=10,
                seed=3,
                mode="per-trial",
            )
        )
        np.testing.assert_array_equal(
            per_trial.arrays["solutions"], batched.arrays["solutions"]
        )
        assert per_trial.spec_hash != batched.spec_hash

    def test_montecarlo_reuse_modes_match_on_the_dense_bench(self, bench_spec):
        # Dense backends ignore newton="reuse" on both paths (LAPACK
        # refactors every call anyway), so the MonteCarlo mode parity holds
        # for reuse specs too: same solutions, Newton counts, fallback
        # strategies and factorizations.
        kwargs = dict(
            circuit=bench_spec,
            perturbations={"mos_vth": Gaussian(sigma=0.03)},
            trials=4,
            seed=1,
            newton="reuse",
        )
        session = Session(store=None)
        batched = session.run(MonteCarlo(**kwargs))
        per_trial = session.run(MonteCarlo(mode="per-trial", **kwargs))
        for key in ("solutions", "iterations", "converged", "max_residuals"):
            np.testing.assert_array_equal(per_trial.arrays[key], batched.arrays[key])
        serial_names = [
            "newton" if name == "batched-newton" else name
            for name in batched.convergence["strategies"]
        ]
        assert per_trial.convergence["strategies"] == serial_names
        assert (
            per_trial.convergence["factorizations"]
            == batched.convergence["factorizations"]
        )

    def test_corners_bit_identical(self, chain_spec, switch_model):
        result = Session(store=None).run(Corners(base=DCOp(circuit=chain_spec)))
        legacy = run_corners(
            build_series_chain(3, model=switch_model).circuit,
            lambda engine, corner: engine.solve_dc(),
        )
        assert set(result.children) == set(legacy)
        for name, child in result.children.items():
            np.testing.assert_array_equal(
                child.arrays["solution"], legacy[name].solution
            )
            assert child.scalars["corner"] == name

    def test_corner_children_have_distinct_hashes(self, chain_spec):
        session = Session(store=None)
        corners = session.run(Corners(base=DCOp(circuit=chain_spec)))
        nominal = session.run(DCOp(circuit=chain_spec))
        hashes = {child.spec_hash for child in corners.children.values()}
        assert len(hashes) == len(corners.children)
        assert nominal.spec_hash not in hashes
        for child in corners.children.values():
            assert child.provenance["spec_hash"] == child.spec_hash

    def test_solver_instance_falls_back_to_direct_run(self, switch_model):
        from repro.experiments.fig11_xor3_transient import run_fig11
        from repro.spice.solvers import DenseSolver

        result = run_fig11(
            model=switch_model, step_duration_s=20e-9, timestep_s=1e-9,
            solver=DenseSolver(),
        )
        assert result.transient.converged

    def test_corner_overlay_restored_after_run(self, chain_spec):
        session = Session(store=None)
        session.run(Corners(base=DCOp(circuit=chain_spec)))
        compiled = get_engine(session.circuit(chain_spec)).compiled
        assert compiled._overlay is None


# ---------------------------------------------------------------------- #
# session behaviour: circuits, caching, stats
# ---------------------------------------------------------------------- #


class TestSessionCaching:
    def test_circuit_built_exactly_once(self, chain_spec):
        session = Session(store=None)
        first = session.circuit(chain_spec)
        session.run(DCOp(circuit=chain_spec))
        session.run(DCSweep(circuit=chain_spec, source="v_drive", values=[0.0, 1.0]))
        assert session.circuit(chain_spec) is first

    def test_cached_rerun_performs_zero_newton_iterations(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        first = session.run(spec)
        assert not first.from_cache
        assert session.last_stats.newton_iterations > 0
        assert session.last_stats.computed == 1

        again = session.run(spec)
        assert again.from_cache
        assert session.last_stats.newton_iterations == 0
        assert session.last_stats.cached == 1
        np.testing.assert_array_equal(
            again.arrays["solution"], first.arrays["solution"]
        )

    def test_caller_mutation_cannot_poison_the_cache(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        first = session.run(spec)
        pristine = first.arrays["solution"].copy()
        first.arrays["solution"][:] = 0.0
        first.scalars["strategy"] = "tampered"
        again = session.run(spec)
        assert again.from_cache
        np.testing.assert_array_equal(again.arrays["solution"], pristine)
        assert again.scalars["strategy"] != "tampered"

    def test_cache_off_policy_bypasses_the_store(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        session.run(spec, cache="off")
        assert len(session.store) == 0
        rerun = session.run(spec)
        assert not rerun.from_cache

    def test_cache_refresh_policy_recomputes_and_overwrites(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        session.run(spec)
        refreshed = session.run(spec, cache="refresh")
        assert not refreshed.from_cache
        assert session.last_stats.computed == 1
        again = session.run(spec)
        assert again.from_cache  # the refreshed entry was written back

    def test_cache_refresh_policy_in_run_many(self, chain_spec):
        session = Session()
        specs = [DCOp(circuit=chain_spec), DCOp(circuit=chain_spec, gmin=1e-10)]
        session.run_many(specs)
        session.run_many(specs, cache="refresh")
        assert session.last_stats.computed == 2
        assert session.last_stats.cached == 0

    def test_unknown_cache_policy_is_rejected(self, chain_spec):
        for policy in ("sometimes", True, None):
            with pytest.raises(ValueError, match="cache policy"):
                Session().run(DCOp(circuit=chain_spec), cache=policy)

    def test_store_rejects_mixing_new_and_legacy_knobs(self, tmp_path):
        with pytest.raises(TypeError, match="cache_dir"):
            Session(cache_dir=str(tmp_path))
        with pytest.raises(TypeError, match="cache_dir"):
            Session(store=None, cache_dir=str(tmp_path))

    def test_changed_spec_misses_the_cache(self, chain_spec):
        session = Session()
        session.run(DCOp(circuit=chain_spec))
        changed = session.run(DCOp(circuit=chain_spec, gmin=1e-10))
        assert not changed.from_cache

    def test_disk_cache_survives_sessions(self, chain_spec, tmp_path):
        directory = str(tmp_path / "store")
        spec = DCOp(circuit=chain_spec)
        first = Session(store=directory).run(spec)

        revived = Session(store=directory)
        again = revived.run(spec)
        assert again.from_cache
        assert revived.last_stats.newton_iterations == 0
        np.testing.assert_array_equal(
            again.arrays["solution"], first.arrays["solution"]
        )

    def test_corrupt_disk_entry_is_a_miss_and_dropped(
        self, chain_spec, tmp_path
    ):
        directory = str(tmp_path / "store")
        spec = DCOp(circuit=chain_spec)
        first = Session(store=directory).run(spec)
        with sqlite3.connect(os.path.join(directory, "results.db")) as connection:
            connection.execute("UPDATE results SET payload = '{not json'")
        revived = Session(store=directory)
        with pytest.warns(RuntimeWarning, match="dropped"):
            rerun = revived.run(spec)
        assert not rerun.from_cache
        assert revived.last_stats.newton_iterations > 0
        assert rerun.to_json() == first.to_json()
        # The recompute was stored again: the next session reads it.
        assert Session(store=directory).run(spec).from_cache

    def test_old_cache_directory_is_read_as_cache_hits(self, chain_spec, tmp_path):
        # A directory written by the removed JSON-file backend: one
        # <spec hash>.json per result, holding exactly Result.to_json().
        directory = tmp_path / "store"
        directory.mkdir()
        spec = DCOp(circuit=chain_spec)
        text = Session(store=None).run(spec).to_json()
        path = directory / f"{spec_hash(spec)}.json"
        path.write_text(text, encoding="utf-8")
        (directory / "0000-truncated.json").write_text(text[:100], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not imported"):
            session = Session(store=directory)
        again = session.run(spec)
        assert again.from_cache
        assert session.last_stats.newton_iterations == 0
        assert session.store.get_json(spec_hash(spec)) == text
        assert again.to_json() == text
        assert path.read_text(encoding="utf-8") == text

    def test_bytes_store_path_is_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="directory path"):
            Session(store=os.fsencode(str(tmp_path / "store")))

    def test_run_many_dedupes_identical_specs(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        study = session.run_many([spec, DCOp(circuit=chain_spec), spec])
        assert len(study) == 3
        assert session.last_stats.computed == 1
        solutions = [result.arrays["solution"] for result in study]
        np.testing.assert_array_equal(solutions[0], solutions[1])
        np.testing.assert_array_equal(solutions[0], solutions[2])

    def test_duplicate_specs_do_not_alias_within_a_resultset(self, chain_spec):
        session = Session()
        spec = DCOp(circuit=chain_spec)
        study = session.run_many([spec, spec])
        pristine = study[1].arrays["solution"].copy()
        study[0].arrays["solution"][:] = -1.0
        np.testing.assert_array_equal(study[1].arrays["solution"], pristine)

    def test_unknown_node_raises_instead_of_reading_zero(self, chain_spec):
        result = Session(store=None).run(DCOp(circuit=chain_spec))
        with pytest.raises(KeyError, match="no_such_node"):
            result.voltage("no_such_node")
        assert result.voltage("0") == 0.0  # ground stays readable as 0 V

    def test_provenance_is_attached(self, chain_spec):
        result = Session(store=None).run(DCOp(circuit=chain_spec))
        assert result.provenance["spec_hash"] == result.spec_hash
        assert "git" in result.provenance
        assert "numpy" in result.provenance["versions"]

    def test_transient_needs_a_stop_time_without_a_sequence(self, chain_spec):
        with pytest.raises(ValueError, match="stop_time_s"):
            Session(store=None).run(Transient(circuit=chain_spec, timestep_s=1e-9))


# ---------------------------------------------------------------------- #
# grids and the executor seam
# ---------------------------------------------------------------------- #


class TestGridsAndExecutors:
    def test_expand_grid_product(self, chain_spec):
        specs = expand_grid(
            DCOp(circuit=chain_spec),
            {"circuit.num_switches": (1, 2), "gmin": (1e-9, 1e-12)},
        )
        assert len(specs) == 4
        seen = {
            (dict(s.circuit.params)["num_switches"], s.gmin) for s in specs
        }
        assert seen == {(1, 1e-9), (1, 1e-12), (2, 1e-9), (2, 1e-12)}

    def test_expand_grid_accepts_one_shot_iterables(self, chain_spec):
        specs = expand_grid(
            DCOp(circuit=chain_spec), {"gmin": (g for g in (1e-9, 1e-12))}
        )
        assert len(specs) == 2
        assert {s.gmin for s in specs} == {1e-9, 1e-12}

    def test_expand_grid_rejects_unknown_fields(self, chain_spec):
        with pytest.raises(ValueError, match="no field"):
            expand_grid(DCOp(circuit=chain_spec), {"nonsense": (1,)})


# ---------------------------------------------------------------------- #
# result schema and serialization
# ---------------------------------------------------------------------- #


class TestResultSerialization:
    def test_resultset_json_roundtrip_bitwise(self, chain_spec, bench_spec):
        session = Session(store=None)
        study = session.run_many(
            [
                DCOp(circuit=chain_spec),
                DCSweep(
                    circuit=chain_spec, source="v_drive", values=[0.0, 0.6, 1.2]
                ),
                Transient(circuit=bench_spec, timestep_s=1e-9, adaptive=True),
            ]
        )
        restored = ResultSet.from_json(study.to_json())
        assert len(restored) == len(study)
        for original, revived in zip(study, restored):
            assert revived.spec_hash == original.spec_hash
            assert revived.kind == original.kind
            assert set(revived.arrays) == set(original.arrays)
            for name in original.arrays:
                assert revived.arrays[name].dtype == original.arrays[name].dtype
                np.testing.assert_array_equal(
                    revived.arrays[name], original.arrays[name]
                )

    def test_transient_convergence_info_roundtrips(self, bench_spec):
        original = Session(store=None).run(
            Transient(circuit=bench_spec, timestep_s=1e-9, adaptive=True)
        )
        revived = Result.from_json(original.to_json())
        info = revived.convergence_info
        assert isinstance(info, TransientConvergenceInfo)
        assert info == original.convergence_info
        assert info.rejected_steps >= 0 and info.strategy == "adaptive"

    def test_corners_children_roundtrip(self, chain_spec):
        original = Session(store=None).run(Corners(base=DCOp(circuit=chain_spec)))
        revived = Result.from_json(original.to_json())
        assert set(revived.children) == set(original.children)
        for name, child in original.children.items():
            np.testing.assert_array_equal(
                revived.children[name].arrays["solution"], child.arrays["solution"]
            )

    def test_nan_and_negative_zero_roundtrip(self):
        payload = np.array([np.nan, -0.0, np.inf, -np.inf, 1e-300])
        result = Result(kind="x", spec_hash="h", arrays={"data": payload})
        revived = Result.from_json(result.to_json())
        np.testing.assert_array_equal(
            revived.arrays["data"].view(np.uint64), payload.view(np.uint64)
        )

    def test_schema_version_is_checked(self):
        result = Result(kind="x", spec_hash="h")
        payload = result.to_jsonable()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            Result.from_jsonable(payload)

    def test_result_columns(self, chain_spec):
        session = Session(store=None)
        study = session.run_many(
            expand_grid(DCOp(circuit=chain_spec), {"circuit.num_switches": (1, 2)})
        )
        columns = study.columns(["iterations", "converged"])
        assert columns["iterations"].shape == (2,)
        assert bool(columns["converged"].all())
