"""Tests for the Monte-Carlo subsystem: distributions, overlays, corners."""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.variability import summarize_samples, yield_fraction
from repro.api import CircuitSpec, MonteCarlo, Session
from repro.circuits.corners import (
    Corner,
    applied_corner,
    corner_overlay,
    run_corners,
    standard_corners,
)
from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    Capacitor,
    Circuit,
    Gaussian,
    Lognormal,
    MOSFET,
    MonteCarloEngine,
    Resistor,
    Uniform,
    VoltageSource,
    get_engine,
)
from repro.spice.montecarlo import Distribution, sample_overlay, trial_generator
from repro.spice.solvers import scipy_available

#: The variability experiment extracts its switch model through the
#: scipy-backed fit; it skips on a scipy-free install.
requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)


class Fixed(Distribution):
    """Every element set to one value: reaches the engine's value checks
    with what no shipped distribution can draw."""

    def __init__(self, value):
        self.value = value

    def sample(self, rng, nominal):
        return np.full_like(nominal, self.value)


def common_source_circuit():
    """The canonical small nonlinear testbench: NMOS with resistive pull-up."""
    circuit = Circuit()
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    VoltageSource(circuit, "vg", "g", "0", 1.2)
    Resistor(circuit, "rl", "vdd", "d", 500e3)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


def drain_metrics(engine, trial):
    """Trial analysis: the drain voltage and the convergence flag."""
    op = engine.solve_dc(refresh=False)
    return {
        "d_v": op.solution[engine.circuit.node_index("d")],
        "converged": float(op.converged),
    }


class TestDistributions:
    def test_gaussian_absolute_shifts_each_element(self):
        rng = np.random.default_rng(0)
        nominal = np.full(100, 5.0)
        sampled = Gaussian(sigma=0.1).sample(rng, nominal)
        assert sampled.shape == nominal.shape
        assert np.std(sampled) == pytest.approx(0.1, rel=0.3)

    def test_gaussian_relative_scales_with_nominal(self):
        rng = np.random.default_rng(0)
        nominal = np.array([1.0, 1000.0])
        spreads = np.std(
            [Gaussian(sigma=0.1, relative=True).sample(rng, nominal) for _ in range(500)],
            axis=0,
        )
        assert spreads[1] / spreads[0] == pytest.approx(1000.0, rel=0.2)

    def test_correlated_draw_is_shared(self):
        rng = np.random.default_rng(1)
        sampled = Gaussian(sigma=0.2, correlated=True).sample(rng, np.zeros(8))
        assert np.all(sampled == sampled[0])
        assert sampled[0] != 0.0

    def test_uniform_stays_within_halfwidth(self):
        rng = np.random.default_rng(2)
        sampled = Uniform(halfwidth=0.5).sample(rng, np.zeros(1000))
        assert np.all(np.abs(sampled) <= 0.5)

    def test_lognormal_preserves_sign_and_spread(self):
        rng = np.random.default_rng(3)
        nominal = np.full(2000, 3.0)
        sampled = Lognormal(sigma_ln=0.3).sample(rng, nominal)
        assert np.all(sampled > 0.0)
        assert np.std(np.log(sampled / 3.0)) == pytest.approx(0.3, rel=0.1)

    def test_negative_spreads_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(sigma=-1.0)
        with pytest.raises(ValueError):
            Uniform(halfwidth=-0.1)
        with pytest.raises(ValueError):
            Lognormal(sigma_ln=-0.1)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "build, name",
        [(Gaussian, "sigma"), (Uniform, "halfwidth"), (Lognormal, "sigma_ln")],
    )
    def test_non_finite_spreads_rejected(self, build, name, spread):
        # NaN < 0.0 is false, so a sign test alone let NaN through.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build(spread)

    def test_nan_spread_fails_building_a_monte_carlo_spec(self):
        with pytest.raises(ValueError, match="^sigma must be finite"):
            MonteCarlo(perturbations={"mos_vth": Gaussian(float("nan"))})

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["gaussian", "uniform", "lognormal"]),
        correlated=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_spread_is_bitwise_identity(self, seed, kind, correlated):
        # The zero-sigma property every distribution must satisfy: the
        # nominal vector comes back bit for bit, whatever the rng state.
        rng = np.random.default_rng(seed)
        nominal = np.array([0.18, 1e-3, 500e3, 7.25e-5])
        if kind == "gaussian":
            dist = Gaussian(sigma=0.0, correlated=correlated)
        elif kind == "uniform":
            dist = Uniform(halfwidth=0.0, correlated=correlated)
        else:
            dist = Lognormal(sigma_ln=0.0, correlated=correlated)
        sampled = dist.sample(rng, nominal)
        assert np.array_equal(sampled, nominal)


class TestParameterOverlay:
    def test_unknown_parameter_rejected(self):
        compiled = get_engine(common_source_circuit()).compiled
        with pytest.raises(ValueError):
            compiled.set_parameter_overlay({"mos_gamma": [1.0]})

    def test_wrong_length_rejected(self):
        compiled = get_engine(common_source_circuit()).compiled
        with pytest.raises(ValueError):
            compiled.set_parameter_overlay({"mos_vth": [0.1, 0.2]})

    @pytest.mark.parametrize(
        "reject, message",
        [
            (
                lambda engine: engine.compiled.set_parameter_overlay(
                    {"resistor_ohm": [0.0]}
                ),
                "resistor_ohm overlay",
            ),
            (
                lambda engine: engine.solve_dc_batched(
                    {"resistor_ohm": [[500e3], [-500.0]]}
                ),
                "resistor_ohm stack .* trial 1 has -500.0",
            ),
            (
                lambda engine: engine.solve_transient_batched(
                    2e-9, 1e-9, {"resistor_ohm": [[0.0], [500e3]]}
                ),
                "resistor_ohm stack .* trial 0 has 0.0",
            ),
            (
                # Seed 1 draws a negative load for trial 3 of 8.
                lambda engine: Session(store=None).run(
                    MonteCarlo(
                        circuit=CircuitSpec(common_source_circuit),
                        perturbations={"resistor_ohm": Gaussian(0.8, relative=True)},
                        trials=8,
                        seed=1,
                        mode="batched",
                    )
                ),
                "resistor_ohm stack .* trial 3 has .*Lognormal",
            ),
        ],
        ids=["overlay", "solve_dc_batched", "solve_transient_batched", "montecarlo_batched"],
    )
    def test_nonpositive_resistance_rejected(self, reject, message):
        # Serial overlays and stacked rows obey one value rule.
        engine = get_engine(common_source_circuit())
        with pytest.raises(ValueError, match=message):
            reject(engine)

    def test_negative_capacitance_stack_rejected(self):
        circuit = Circuit()
        VoltageSource(circuit, "vin", "in", "0", 1.2)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-12)
        with pytest.raises(ValueError, match="cap_c stack .* trial 1 has -1e-12"):
            get_engine(circuit).solve_transient_batched(
                2e-9, 1e-9, {"cap_c": [[1e-12], [-1e-12]]}
            )

    def test_per_trial_runs_name_the_invalid_trial(self):
        mc = MonteCarloEngine(
            common_source_circuit(),
            {"resistor_ohm": Gaussian(0.8, relative=True)},
            seed=1,
        )
        # Same message as the batched mode (the montecarlo_batched case).
        with pytest.raises(ValueError, match="trial 3 has .*Lognormal"):
            mc.run_per_trial_dc(8)
        with pytest.raises(ValueError, match="trial 3 has .*Lognormal"):
            mc.run(drain_metrics, 8)

    @pytest.mark.parametrize(
        "reject, message",
        [
            (
                lambda engine: engine.compiled.set_parameter_overlay(
                    {"resistor_ohm": [float("nan")]}
                ),
                "resistor_ohm overlay values must be positive; got nan",
            ),
            (
                lambda engine: engine.compiled.set_parameter_overlay(
                    {"mos_vth": [float("inf")]}
                ),
                "mos_vth overlay values must be finite; got inf",
            ),
            (
                lambda engine: engine.solve_dc_batched(
                    {"resistor_ohm": [[500e3], [float("nan")]]}
                ),
                r"resistor_ohm stack values must be positive; trial 1 has nan$",
            ),
            (
                lambda engine: engine.solve_dc_batched(
                    {"mos_beta": [[1e-4], [1e-4], [float("-inf")]]}
                ),
                r"mos_beta stack values must be finite; trial 2 has -inf$",
            ),
            (
                lambda engine: MonteCarloEngine(
                    engine.circuit, {"mos_lambda": Fixed(float("nan"))}
                ).run_per_trial_dc(4),
                r"mos_lambda stack values must be finite; trial 0 has nan$",
            ),
            (
                lambda engine: MonteCarloEngine(
                    engine.circuit, {"vsource_scale": Fixed(float("inf"))}
                ).run_batched_dc(4),
                "vsource_scale stack values must be finite; trial 0 has",
            ),
        ],
        ids=[
            "overlay_resistor",
            "overlay_vth",
            "solve_dc_batched_resistor",
            "solve_dc_batched_beta",
            "montecarlo_per_trial",
            "montecarlo_batched",
        ],
    )
    def test_non_finite_values_rejected(self, reject, message):
        # NaN slipped past the sign rules (NaN <= 0 is false) and ran every
        # fallback ladder to "failed"; every perturbable vector is checked.
        engine = get_engine(common_source_circuit())
        with pytest.raises(ValueError, match=message):
            reject(engine)

    def test_vth_overlay_changes_solution_and_clear_restores(self):
        circuit = common_source_circuit()
        compiled = get_engine(circuit).compiled
        nominal = get_engine(circuit).solve_dc().voltage("d")
        compiled.set_parameter_overlay({"mos_vth": [NMOS.vth_v + 0.9]})
        raised_vth = get_engine(circuit).solve_dc().voltage("d")
        # A near-cutoff threshold weakens the pull-down: the drain rises.
        assert raised_vth > nominal + 0.1
        compiled.clear_parameter_overlay()
        assert get_engine(circuit).solve_dc().voltage("d") == nominal

    def test_overlay_survives_per_solve_refresh(self):
        # The analyses refresh element values before every solve; an active
        # overlay must take precedence over the re-read elements.
        circuit = common_source_circuit()
        compiled = get_engine(circuit).compiled
        compiled.set_parameter_overlay({"mos_vth": [NMOS.vth_v + 0.3]})
        first = get_engine(circuit).solve_dc().voltage("d")
        second = get_engine(circuit).solve_dc().voltage("d")
        assert first == second
        compiled.clear_parameter_overlay()

    def test_resistor_overlay_matches_element_mutation(self):
        def divider():
            circuit = Circuit()
            VoltageSource(circuit, "v1", "in", "0", 2.0)
            Resistor(circuit, "r1", "in", "mid", 1e3)
            Resistor(circuit, "r2", "mid", "0", 3e3)
            return circuit

        overlaid = divider()
        get_engine(overlaid).compiled.set_parameter_overlay(
            {"resistor_ohm": [1e3, 1e3]}
        )
        mutated = divider()
        mutated.element("r2").resistance_ohm = 1e3
        assert get_engine(overlaid).solve_dc().voltage("mid") == pytest.approx(
            get_engine(mutated).solve_dc().voltage("mid"), abs=1e-9
        )

    def test_vsource_scale_halves_the_divider(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 2.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 1e3)
        compiled = get_engine(circuit).compiled
        compiled.set_parameter_overlay({"vsource_scale": [0.5]})
        assert get_engine(circuit).solve_dc().voltage("in") == pytest.approx(1.0, abs=1e-4)
        compiled.clear_parameter_overlay()
        assert get_engine(circuit).solve_dc().voltage("in") == pytest.approx(2.0, abs=1e-4)

    def test_capacitance_overlay_slows_rc_charging(self):
        from repro.spice import Capacitor

        circuit = Circuit()
        VoltageSource(circuit, "v1", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "out", 1e3)
        Capacitor(circuit, "c1", "out", "0", 1e-9)
        compiled = get_engine(circuit).compiled
        compiled.set_parameter_overlay({"cap_c": [2e-9]})
        result = get_engine(circuit).solve_transient(
            2e-6, 2e-8, use_initial_conditions=True
        )
        # Doubled C doubles tau: at t = tau/2 the curve sits at 1 - e^-0.5.
        assert result.sample_voltage("out", 1e-6) == pytest.approx(
            1.0 - np.exp(-0.5), abs=0.02
        )
        compiled.clear_parameter_overlay()

    def test_topology_change_under_overlay_raises_instead_of_dropping(self):
        # Recompiling would silently discard the overlay (the perturbed
        # vectors are sized for the old element population), so mutating
        # the topology while one is active must fail loudly at the next
        # solve instead of returning nominal results.
        circuit = common_source_circuit()
        compiled = get_engine(circuit).compiled
        compiled.set_parameter_overlay({"mos_vth": [NMOS.vth_v + 0.1]})
        Resistor(circuit, "r_probe", "d", "0", 1e9)
        with pytest.raises(RuntimeError, match="overlay"):
            get_engine(circuit).solve_dc()
        # The engine-level clear is the public recovery path (the compiled
        # property itself raises while the stale overlay is active).
        get_engine(circuit).clear_parameter_overlay()
        assert get_engine(circuit).solve_dc().converged

    def test_pickling_drops_rebuildable_caches(self):
        import pickle

        circuit = common_source_circuit()
        engine = get_engine(circuit)
        engine.solve_dc()  # populate the base-data cache
        engine.solve_dc_batched(trials=2)  # and the kernel's padding workspace
        assert engine.compiled._base_data_cache
        assert "padded" in engine.compiled._workspaces
        restored = pickle.loads(pickle.dumps(circuit))
        restored_compiled = get_engine(restored).compiled
        assert restored_compiled._base_data_cache == {}
        assert restored_compiled._workspaces == {}
        # The shipped compiled state still solves without recompiling.
        assert restored_compiled.revision == restored.revision
        assert get_engine(restored).solve_dc().converged

    def test_nominal_parameters_are_copies(self):
        compiled = get_engine(common_source_circuit()).compiled
        nominal = compiled.nominal_parameters()
        nominal["mos_vth"][0] = 99.0
        assert compiled.nominal_parameters()["mos_vth"][0] == NMOS.vth_v


class TestMonteCarloEngine:
    def test_rejects_empty_or_unknown_perturbations(self):
        circuit = common_source_circuit()
        with pytest.raises(ValueError):
            MonteCarloEngine(circuit, {})
        with pytest.raises(ValueError):
            MonteCarloEngine(circuit, {"mos_gamma": Gaussian(0.1)})
        with pytest.raises(TypeError):
            MonteCarloEngine(circuit, {"mos_vth": 0.1})

    def test_rejects_perturbation_without_elements(self):
        circuit = Circuit()
        VoltageSource(circuit, "v1", "a", "0", 1.0)
        Resistor(circuit, "r1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.1)})

    def test_seeded_runs_are_reproducible(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=11)
        first = mc.run(drain_metrics, trials=6)
        second = mc.run(drain_metrics, trials=6)
        assert first.records == second.records

    def test_different_seeds_differ(self):
        circuit = common_source_circuit()
        a = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=1).run(
            drain_metrics, trials=4
        )
        b = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=2).run(
            drain_metrics, trials=4
        )
        assert a.records != b.records

    def test_nominal_restored_after_run(self):
        circuit = common_source_circuit()
        nominal = get_engine(circuit).solve_dc().voltage("d")
        MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=3).run(
            drain_metrics, trials=4
        )
        assert get_engine(circuit).solve_dc().voltage("d") == nominal

    def test_trial_overlay_matches_direct_sampling(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=21)
        compiled = get_engine(circuit).compiled
        expected = sample_overlay(
            mc.perturbations, compiled.nominal_parameters(), trial_generator(21, 5)
        )
        overlay = mc.sample_trial_overlay(5)
        assert np.array_equal(overlay["mos_vth"], expected["mos_vth"])

    def test_analysis_must_return_mapping(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=0)
        with pytest.raises(TypeError):
            mc.run(lambda engine, trial: 1.0, trials=1)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_sigma_run_reproduces_nominal_bitwise(self, seed):
        # A Monte-Carlo run with every spread at zero must be the nominal
        # engine result bit for bit: same overlay values, same assembly,
        # same solve.
        circuit = common_source_circuit()
        nominal = get_engine(circuit).solve_dc().solution.copy()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(
            circuit,
            {
                "mos_vth": Gaussian(sigma=0.0),
                "mos_beta": Lognormal(sigma_ln=0.0),
                "resistor_ohm": Uniform(halfwidth=0.0, relative=True),
                "vsource_scale": Gaussian(sigma=0.0, correlated=True),
            },
            seed=seed,
        )
        result = mc.run(drain_metrics, trials=3)
        assert all(record["d_v"] == nominal[index] for record in result.records)

    def test_composes_with_active_corner_overlay(self):
        # Monte Carlo inside a corner block must sample around the corner
        # and restore it afterwards — not silently run (and leave the
        # circuit) at nominal.
        circuit = common_source_circuit()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(sigma=0.0)}, seed=4)
        with applied_corner(circuit, Corner("SS", 0.9, +0.045)) as engine:
            corner_value = engine.solve_dc().solution[index]
            result = mc.run(drain_metrics, trials=2)
            # Zero sigma: every trial reproduces the corner bit for bit.
            assert all(record["d_v"] == corner_value for record in result.records)
            # The corner overlay is restored for the rest of the block.
            assert engine.solve_dc().solution[index] == corner_value
        nominal = get_engine(circuit).solve_dc().solution[index]
        assert nominal != corner_value

    def test_result_accessors(self):
        circuit = common_source_circuit()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.05)}, seed=5)
        result = mc.run(drain_metrics, trials=16)
        assert result.keys() == ("d_v", "converged")
        samples = result.samples("d_v")
        assert samples.shape == (16,)
        summary = result.summary("d_v")
        assert summary.count == 16
        assert summary.minimum <= summary.median <= summary.maximum
        assert result.yield_fraction("converged", lower=0.5) == 1.0


class TestCorners:
    def test_standard_corners_cover_the_grid(self):
        corners = standard_corners()
        assert set(corners) == {"TT", "FF", "SS", "FS", "SF"}
        assert corners["TT"].beta_scale == 1.0 and corners["TT"].vth_shift_v == 0.0
        assert corners["FF"].vth_shift_v < 0.0 < corners["SS"].vth_shift_v
        assert corners["SS"].beta_scale < 1.0 < corners["FF"].beta_scale

    def test_corner_overlay_shifts_all_devices(self):
        circuit = common_source_circuit()
        overlay = corner_overlay(circuit, Corner("FF", 1.1, -0.045))
        assert overlay["mos_vth"][0] == pytest.approx(NMOS.vth_v - 0.045)
        assert overlay["mos_beta"][0] == pytest.approx(1.1 * NMOS.beta)

    def test_applied_corner_restores_on_exit(self):
        circuit = common_source_circuit()
        nominal = get_engine(circuit).solve_dc().voltage("d")
        with applied_corner(circuit, Corner("SS", 0.9, +0.045)) as engine:
            slow = engine.solve_dc().solution[circuit.node_index("d")]
        # The slow corner conducts less: the drain sits higher.
        assert slow > nominal
        assert get_engine(circuit).solve_dc().voltage("d") == nominal

    def test_run_corners_orders_results_physically(self):
        circuit = common_source_circuit()

        def drain(engine, corner):
            return engine.solve_dc().solution[circuit.node_index("d")]

        results = run_corners(circuit, drain)
        assert set(results) == {"TT", "FF", "SS", "FS", "SF"}
        # FF pulls hardest (lowest drain), SS weakest (highest drain),
        # nominal in between.
        assert results["FF"] < results["TT"] < results["SS"]

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            standard_corners(beta_spread=-0.1)


class TestVariabilityStatistics:
    def test_summary_basic_statistics(self):
        summary = summarize_samples(np.arange(101, dtype=float))
        assert summary.count == 101
        assert summary.invalid == 0
        assert summary.median == pytest.approx(50.0)
        assert summary.percentiles[5.0] == pytest.approx(5.0)
        assert summary.spread(5.0, 95.0) == pytest.approx(90.0)

    def test_summary_excludes_but_counts_nans(self):
        summary = summarize_samples([1.0, float("nan"), 3.0, float("inf")])
        assert summary.count == 2
        assert summary.invalid == 2
        assert summary.mean == pytest.approx(2.0)

    def test_summary_of_all_invalid_is_nan(self):
        summary = summarize_samples([float("nan")])
        assert summary.count == 0 and summary.invalid == 1
        assert np.isnan(summary.median)

    def test_yield_counts_nan_as_failure(self):
        assert yield_fraction([1.0, float("nan"), 3.0], lower=0.0) == pytest.approx(2 / 3)

    def test_yield_bounds(self):
        values = [0.5, 1.5, 2.5, 3.5]
        assert yield_fraction(values, lower=1.0, upper=3.0) == pytest.approx(0.5)
        assert yield_fraction(values) == 1.0

    def test_spread_requires_computed_percentiles(self):
        summary = summarize_samples([1.0, 2.0], percentiles=(50,))
        with pytest.raises(KeyError):
            summary.spread(5.0, 95.0)


@requires_scipy
class TestVariabilityExperiment:
    def test_small_study_end_to_end(self):
        from repro.experiments.variability_xor3 import run_variability_xor3

        result = run_variability_xor3(
            trials=4, seed=99, timestep_s=2e-9, step_duration_s=30e-9
        )
        assert result.montecarlo.trials == 4
        assert np.all(np.isfinite(result.montecarlo.samples("fall_time_s")))
        assert result.functional_yield() == 1.0
        report = result.report()
        assert "rise time" in report and "functional yield" in report
        # The nominal reference reproduces the unperturbed fall time.
        assert result.nominal["fall_time_s"] > 0.0
