"""Tests for the lockstep batched-transient path: engine, MC wiring, specs.

The central property — pinned at zero and nonzero sigma, through failing
and singular trials, and at the spec level — is that
:meth:`~repro.spice.engine.AnalysisEngine.solve_transient_batched` reproduces
the per-trial :meth:`~repro.spice.engine.AnalysisEngine.solve_transient`
*bit for bit* on the same fixed grid.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import MonteCarlo, Result, Session, Transient, spec_hash
from repro.circuits.corners import Corner, applied_corner, corner_overlay
from repro.experiments.variability_xor3 import (
    METRIC_HOOK,
    _metrics_from_waveform,
    build_variability_bench,
)
from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    Capacitor,
    Circuit,
    Gaussian,
    Lognormal,
    MOSFET,
    MonteCarloEngine,
    Pulse,
    Resistor,
    TransientResult,
    VoltageSource,
    get_engine,
)
from repro.spice import _rowblocks
from repro.spice.solvers import DenseSolver, scipy_available

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)

#: The small transient bench of these tests: a pulsed common-source stage
#: with a load capacitor (every compiled element class is exercised).
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


class FlakySolver(DenseSolver):
    """Raises whenever the poisoned trial's RHS is in the batch."""

    def __init__(self, poison: float):
        self.poison = poison

    def _poisoned(self, rhs):
        return bool(np.any(np.isclose(rhs, self.poison)))

    def solve_batched(self, matrices, rhs):
        if self._poisoned(rhs):
            raise np.linalg.LinAlgError("poisoned stack")
        return super().solve_batched(matrices, rhs)

    def solve(self, matrix, rhs):
        if self._poisoned(rhs):
            raise np.linalg.LinAlgError("poisoned row")
        return super().solve(matrix, rhs)


def per_trial_reference(circuit, mc, trials, **transient_kwargs):
    """The per-trial oracle: overlay each trial's stacks, march serially."""
    engine = get_engine(circuit)
    compiled = engine.compiled
    stacks = mc.sample_stacked_overlays(trials)
    results = []
    try:
        for trial in range(trials):
            compiled.set_parameter_overlay(
                {name: stack[trial] for name, stack in stacks.items()}
            )
            results.append(
                engine.solve_transient(STOP_S, STEP_S, **transient_kwargs)
            )
    finally:
        compiled.clear_parameter_overlay()
    return results


class TestSolveTransientBatched:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_sigma_reproduces_nominal_bitwise(self, seed):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(sigma=0.0)}, seed=seed)
        batch = mc.run_batched_transient(3, STOP_S, STEP_S)
        nominal = get_engine(circuit).solve_transient(STOP_S, STEP_S)
        for trial in range(3):
            assert np.array_equal(batch.solutions[trial], nominal.solutions)
        assert np.array_equal(batch.time_s, nominal.time_s)
        assert batch.all_converged

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_nonzero_sigma_is_bitwise_per_trial(self, seed):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "mos_beta": Gaussian(0.05, relative=True)},
            seed=seed,
        )
        trials = 4
        batch = mc.run_batched_transient(trials, STOP_S, STEP_S)
        for trial, reference in enumerate(per_trial_reference(circuit, mc, trials)):
            assert np.array_equal(batch.solutions[trial], reference.solutions)
            assert bool(batch.converged[trial]) == reference.converged

    @pytest.mark.parametrize("integration", ["be", "trap"])
    def test_both_integrations_match_per_trial(self, integration):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.03)}, seed=5)
        batch = mc.run_batched_transient(3, STOP_S, STEP_S, integration=integration)
        references = per_trial_reference(circuit, mc, 3, integration=integration)
        for trial, reference in enumerate(references):
            assert np.array_equal(batch.solutions[trial], reference.solutions)

    @pytest.mark.parametrize("integration", ["be", "trap"])
    def test_one_trial_without_parameter_stacks_is_the_serial_run(self, integration):
        # A stack of one with no parameter stacks takes the Newton loop's
        # row loop on every step, with the march state still stacked.
        engine = get_engine(pulsed_amplifier())
        serial = engine.solve_transient(STOP_S, STEP_S, integration=integration)
        stacked = engine.solve_transient_batched(
            STOP_S, STEP_S, trials=1, integration=integration
        )
        assert np.array_equal(stacked.solutions[0], serial.solutions)
        assert stacked.newton_iterations.tolist() == [
            serial.convergence_info.newton_iterations
        ]

    def test_perturbed_static_stamps_match_per_trial(self):
        # resistor_ohm / cap_c stacks leave the shared-base fast path and
        # per-trial source scales multiply the stimulus — all three must
        # still be bit-exact against serial overlay marching.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(
            circuit,
            {
                "resistor_ohm": Lognormal(sigma_ln=0.05),
                "cap_c": Lognormal(sigma_ln=0.05),
                "vsource_scale": Gaussian(sigma=0.01),
            },
            seed=9,
        )
        batch = mc.run_batched_transient(4, STOP_S, STEP_S, integration="trap")
        references = per_trial_reference(circuit, mc, 4, integration="trap")
        for trial, reference in enumerate(references):
            assert np.array_equal(batch.solutions[trial], reference.solutions)

    def test_use_initial_conditions_matches_per_trial(self):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.02)}, seed=2)
        batch = mc.run_batched_transient(3, STOP_S, STEP_S, use_initial_conditions=True)
        references = per_trial_reference(
            circuit, mc, 3, use_initial_conditions=True
        )
        for trial, reference in enumerate(references):
            assert np.array_equal(batch.solutions[trial], reference.solutions)

    def test_starved_newton_exercises_serial_fallback_ladder(self):
        # One Newton round per step converges nothing, so every trial
        # marches on unconverged inside the lockstep stack, exactly as the
        # serial fixed-step march does — waveforms, Newton totals, worst
        # residuals and non-convergence flags are the per-trial path's, bit
        # for bit.
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.02)}, seed=3)
        batch = mc.run_batched_transient(3, STOP_S, STEP_S, max_newton_iterations=1)
        assert set(batch.strategies) == {"lockstep"}
        assert not batch.all_converged
        references = per_trial_reference(
            circuit, mc, 3, max_newton_iterations=1
        )
        for trial, reference in enumerate(references):
            assert np.array_equal(batch.solutions[trial], reference.solutions)
            assert bool(batch.converged[trial]) == reference.converged
            info = reference.convergence_info
            assert batch.newton_iterations[trial] == info.newton_iterations
            assert batch.max_residuals[trial] == info.max_newton_residual_v

    def test_records_match_per_trial_run(self):
        # The MonteCarloEngine-level contract: metrics extracted from the
        # batched waveforms equal a run() whose analysis marches per trial.
        circuit = pulsed_amplifier()
        index = circuit.node_index("d")
        mc = MonteCarloEngine(
            circuit,
            {"mos_vth": Gaussian(0.03), "mos_beta": Gaussian(0.05, relative=True)},
            seed=17,
        )

        def analysis(engine, trial):
            transient = engine.solve_transient(STOP_S, STEP_S)
            return _metrics_from_waveform(
                transient.time_s, transient.solutions[:, index], transient.converged
            )

        trials = 6
        serial = mc.run(analysis, trials=trials)
        batch = mc.run_batched_transient(trials, STOP_S, STEP_S)
        out = batch.voltage("d")
        records = [
            _metrics_from_waveform(batch.time_s, out[t], bool(batch.converged[t]))
            for t in range(trials)
        ]
        assert records == serial.records

    def test_result_accessors(self):
        circuit = pulsed_amplifier()
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.02)}, seed=1)
        batch = mc.run_batched_transient(4, STOP_S, STEP_S)
        steps = int(round(STOP_S / STEP_S))
        assert len(batch) == 4
        assert batch.voltage("d").shape == (4, steps + 1)
        assert batch.voltage("0").tolist() == [[0.0] * (steps + 1)] * 4
        assert batch.total_newton_iterations == int(batch.newton_iterations.sum())
        one = batch.trial(2)
        assert isinstance(one, TransientResult)
        assert np.array_equal(one.solutions, batch.solutions[2])
        assert one.convergence_info.strategy == batch.strategies[2]
        assert one.convergence_info.accepted_steps == steps

    def test_singular_trial_is_isolated_not_contagious(self):
        # One trial whose linear solves always fail must not eject its
        # innocent neighbours: they keep solving batched while the singular
        # trial bumps its own gmin inside the stack and fails exactly as a
        # serial solve with the same refusing solver does.
        circuit = Circuit("divider")
        VoltageSource(circuit, "vin", "in", "0", 1.0)
        Resistor(circuit, "r1", "in", "mid", 1e3)
        Resistor(circuit, "r2", "mid", "0", 3e3)
        scale = np.array([[1.0], [7.77], [1.0], [1.0]])
        batched = get_engine(circuit).solve_dc_batched(
            {"vsource_scale": scale}, solver=FlakySolver(poison=7.77)
        )
        engine = get_engine(circuit)
        engine.compiled.set_parameter_overlay({"vsource_scale": scale[1]})
        try:
            reference = engine.solve_dc(solver=FlakySolver(poison=7.77))
        finally:
            engine.compiled.clear_parameter_overlay()
        assert batched.converged.tolist() == [True, reference.converged, True, True]
        assert batched.strategies[0] == "batched-newton"
        assert batched.strategies[2] == "batched-newton"
        assert batched.strategies[3] == "batched-newton"
        assert batched.strategies[1] == reference.convergence_info.strategy == "failed"
        assert np.array_equal(batched.solutions[1], reference.solution)
        assert batched.iterations[1] == reference.iterations
        assert batched.max_residuals[1] == reference.max_residual
        assert batched.voltage("mid")[[0, 2, 3]] == pytest.approx([0.75] * 3, rel=1e-6)

    def test_rejects_bad_arguments(self):
        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        stacks = {"mos_vth": np.full((2, 1), 0.18)}
        with pytest.raises(ValueError, match="positive"):
            engine.solve_transient_batched(-1.0, STEP_S, stacks)
        with pytest.raises(ValueError, match="exceed"):
            engine.solve_transient_batched(STEP_S / 2, STEP_S, stacks)
        with pytest.raises(ValueError, match="integration"):
            engine.solve_transient_batched(STOP_S, STEP_S, stacks, integration="rk4")
        with pytest.raises(ValueError, match="trials"):
            engine.solve_transient_batched(STOP_S, STEP_S)


class TestRescueUnderBaseOverlay:
    """A failing stacked trial runs under the base overlay plus its own
    rows, matches the serial solve under that composed overlay, and the
    base overlay is still in force once the batched call returns."""

    CORNER = Corner("SS", 0.9, +0.045)

    def serial_reference(self, circuit, trial_rows, solve):
        """``solve(engine)`` under the corner overlay composed with ``trial_rows``."""
        engine = get_engine(circuit)
        overlay = {**corner_overlay(circuit, self.CORNER), **trial_rows}
        engine.compiled.set_parameter_overlay(overlay)
        try:
            return solve(engine)
        finally:
            engine.compiled.clear_parameter_overlay()

    def test_dc_rescue_composes_with_corner(self):
        circuit = pulsed_amplifier()
        index = circuit.node_index("d")
        # Trial 1 drives vdd to 1.5 V, which the flaky solver refuses on
        # both paths.
        scale = np.ones((3, 2))
        scale[1, 0] = 1.25
        reference = self.serial_reference(
            circuit,
            {"vsource_scale": scale[1]},
            lambda engine: engine.solve_dc(solver=FlakySolver(poison=1.5)),
        )
        with applied_corner(circuit, self.CORNER) as engine:
            corner_value = engine.solve_dc().solution[index]
            batched = engine.solve_dc_batched(
                {"vsource_scale": scale}, solver=FlakySolver(poison=1.5)
            )
            assert engine.solve_dc().solution[index] == corner_value
        assert batched.strategies == ("batched-newton", "failed", "batched-newton")
        assert reference.convergence_info.strategy == "failed"
        assert bool(batched.converged[1]) == reference.converged
        assert np.array_equal(batched.solutions[1], reference.solution)
        assert batched.iterations[1] == reference.iterations
        assert batched.max_residuals[1] == reference.max_residual
        assert batched.solutions[0, index] == corner_value

    def test_transient_rescue_composes_with_corner(self):
        circuit = pulsed_amplifier()
        index = circuit.node_index("d")
        # Trial 1 runs vdd at 24 V: its drain cannot cross the gate edge
        # in ten 1 V-clamped rounds, so it fails a step and marches on
        # inside the lockstep stack, as the serial march does.
        scale = np.ones((3, 2))
        scale[1, 0] = 20.0
        controls = dict(max_newton_iterations=10)
        reference = self.serial_reference(
            circuit,
            {"vsource_scale": scale[1]},
            lambda engine: engine.solve_transient(STOP_S, STEP_S, **controls),
        )
        with applied_corner(circuit, self.CORNER) as engine:
            corner = engine.solve_transient(STOP_S, STEP_S, **controls)
            batched = engine.solve_transient_batched(
                STOP_S, STEP_S, {"vsource_scale": scale}, **controls
            )
            after = engine.solve_transient(STOP_S, STEP_S, **controls)
        assert np.array_equal(after.solutions, corner.solutions)
        assert batched.strategies == ("lockstep", "lockstep", "lockstep")
        assert np.array_equal(batched.solutions[1], reference.solutions)
        info = reference.convergence_info
        assert batched.newton_iterations[1] == info.newton_iterations
        assert batched.max_residuals[1] == info.max_newton_residual_v
        assert bool(batched.converged[1]) == reference.converged
        assert np.array_equal(batched.solutions[0][:, index], corner.solutions[:, index])


def tailed_divider():
    """A divider whose ``mid`` node also feeds a ``tail`` through r3/r4."""
    circuit = Circuit("tailed-divider")
    VoltageSource(circuit, "vin", "in", "0", 1.0)
    Resistor(circuit, "r1", "in", "mid", 1e3)
    Resistor(circuit, "r2", "mid", "0", 3e3)
    Resistor(circuit, "r3", "mid", "tail", 2e3)
    Resistor(circuit, "r4", "tail", "0", 5e3)
    return circuit


class TestStackedFailuresMatchSerial:
    """A failing trial fails inside the stack exactly as a serial run fails."""

    #: Trial 1 opens r3 and r4, which leaves ``tail`` floating: at zero gmin
    #: its system is genuinely singular (no mocked solver involved).
    OHMS = np.array([[1e3, 3e3, 2e3, 5e3], [1e3, 3e3, np.inf, np.inf]])

    @pytest.mark.parametrize(
        "batched_solver, serial_solver, newton, trials",
        [
            ("batched", "dense", None, 2),
            # 64 trials: the stack splits into two row blocks, one run by
            # a forked child, with singular trials in both.
            ("batched", "dense", None, 64),
            *(
                pytest.param(
                    batched_solver,
                    "sparse",
                    newton,
                    2,
                    marks=pytest.mark.skipif(
                        not scipy_available(), reason="needs the scipy optional extra"
                    ),
                )
                for batched_solver, newton in (
                    ("sparse-batched", None),
                    ("sparse-batched", "reuse"),
                    ("sparse", "reuse"),
                )
            ),
        ],
    )
    def test_singular_trial_bumps_its_own_gmin(
        self, batched_solver, serial_solver, newton, trials, monkeypatch, single_threaded
    ):
        # Two usable CPUs whatever the host, a split whatever the work
        # (this divider's 4 unknowns carry too little to split by
        # default), and a record of every split decision.
        halves = []
        split_point = _rowblocks.split_point

        def recorded(*args, **kwargs):
            halves.append(split_point(*args, **kwargs))
            return halves[-1]

        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(_rowblocks, "_MIN_WORK", 0)
        monkeypatch.setattr(_rowblocks, "split_point", recorded)
        circuit = tailed_divider()
        engine = get_engine(circuit)
        batched = engine.solve_dc_batched(
            {"resistor_ohm": np.tile(self.OHMS, (trials // 2, 1))},
            gmin=0.0, solver=batched_solver, newton=newton,
        )
        forks = sys.platform.startswith("linux") and hasattr(os, "fork")
        assert halves == [trials // 2 if trials >= 16 and forks else 0]
        references = []
        for ohms in self.OHMS:
            engine.compiled.set_parameter_overlay({"resistor_ohm": ohms})
            try:
                references.append(
                    engine.solve_dc(gmin=0.0, solver=serial_solver, newton=newton)
                )
            finally:
                engine.compiled.clear_parameter_overlay()
        assert batched.strategies == ("batched-newton",) * trials
        assert references[1].iterations == 4
        # Full Newton factorizes every round.  Dense LAPACK counts the
        # singular round of trial 1 too; SuperLU raises before a singular
        # factor is counted.  Reuse mode factorizes once and solves the
        # bitwise-unchanged linear system through its held LU after.
        if newton == "reuse":
            expected_counts = [(1, 2), (1, 2)]
        elif serial_solver == "dense":
            expected_counts = [(3, 0), (4, 0)]
        else:
            expected_counts = [(3, 0), (3, 0)]
        assert [
            (r.convergence_info.factorizations, r.convergence_info.factorization_reuses)
            for r in references
        ] == expected_counts
        for trial in range(trials):
            reference = references[trial % 2]
            assert reference.convergence_info.strategy == "newton"
            assert np.array_equal(batched.solutions[trial], reference.solution)
            assert batched.iterations[trial] == reference.iterations
            assert batched.max_residuals[trial] == reference.max_residual
            assert bool(batched.converged[trial]) == reference.converged
        if newton == "reuse":
            # Each trial keeps its own frozen LU, so the stack pays exactly
            # the factorizations and reuses of the per-trial runs.
            assert (batched.factorizations, batched.factorization_reuses) == (
                sum(r.convergence_info.factorizations for r in references),
                sum(r.convergence_info.factorization_reuses for r in references),
            )

    def test_batched_drivers_never_call_the_serial_drivers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a batched driver called a serial driver")

        divider = get_engine(tailed_divider())
        amplifier = get_engine(pulsed_amplifier())
        scale = np.ones((2, 2))
        scale[1, 0] = 20.0
        for engine in (divider, amplifier):
            monkeypatch.setattr(engine, "solve_dc", refuse)
            monkeypatch.setattr(engine, "solve_transient", refuse)
        singular = divider.solve_dc_batched({"resistor_ohm": self.OHMS}, gmin=0.0)
        starved = divider.solve_dc_batched(
            {"resistor_ohm": self.OHMS[:1]}, max_iterations=1
        )
        march = amplifier.solve_transient_batched(
            STOP_S, STEP_S, {"vsource_scale": scale}, max_newton_iterations=10
        )
        assert singular.all_converged
        assert not starved.all_converged
        assert march.converged.tolist() == [True, False]
        assert march.strategies == ("lockstep", "lockstep")


# ---------------------------------------------------------------------- #
# the MonteCarlo(base=Transient(...)) spec
# ---------------------------------------------------------------------- #


@pytest.fixture()
def bench_spec(switch_model):
    from repro.api import CircuitSpec

    return CircuitSpec(
        build_variability_bench,
        params={"model": switch_model, "step_duration_s": 10e-9},
    )


@pytest.fixture()
def mc_transient_spec(bench_spec):
    return MonteCarlo(
        base=Transient(circuit=bench_spec, timestep_s=1e-9),
        perturbations={
            "mos_vth": Gaussian(sigma=0.03),
            "mos_beta": Gaussian(sigma=0.05, relative=True),
        },
        trials=5,
        seed=42,
        metrics=(METRIC_HOOK,),
        metric_node="out",
    )


def arrays_equal(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


class TestMonteCarloTransientSpec:
    def test_batched_and_per_trial_modes_are_bitwise_equal(self, mc_transient_spec):
        session = Session(store=None)
        batched = session.run(mc_transient_spec)
        per_trial = session.run(dataclasses.replace(mc_transient_spec, mode="per-trial"))
        assert set(batched.arrays) == set(per_trial.arrays)
        for key in batched.arrays:
            assert arrays_equal(batched.arrays[key], per_trial.arrays[key]), key
        assert batched.convergence["strategies"] == ["lockstep"] * 5
        assert per_trial.convergence["strategies"] == ["fixed-step"] * 5
        assert batched.spec_hash != per_trial.spec_hash

    def test_spec_matches_legacy_montecarlo_run(self, mc_transient_spec, switch_model):
        from functools import partial

        from repro.experiments.variability_xor3 import delay_metrics_trial

        session = Session(store=None)
        result = session.run(mc_transient_spec)
        bench = build_variability_bench(model=switch_model, step_duration_s=10e-9)
        legacy = MonteCarloEngine(
            bench.circuit, dict(mc_transient_spec.perturbations), seed=42
        ).run(
            partial(
                delay_metrics_trial,
                output_index=bench.circuit.node_index("out"),
                stop_time_s=bench.input_sequence.total_duration_s,
                timestep_s=1e-9,
            ),
            trials=5,
        )
        for key in result.meta["metric_keys"]:
            column = result.arrays[f"metric_{key}"]
            legacy_column = np.array([record[key] for record in legacy.records])
            assert arrays_equal(column, legacy_column), key

    def test_json_round_trip_is_exact(self, mc_transient_spec):
        result = Session(store=None).run(mc_transient_spec)
        revived = Result.from_json(result.to_json())
        assert revived.to_json() == result.to_json()
        for key in result.arrays:
            assert arrays_equal(result.arrays[key], revived.arrays[key]), key
        assert revived.meta["metric_keys"] == result.meta["metric_keys"]

    def test_disk_cache_revival_does_zero_newton_work(self, mc_transient_spec, tmp_path):
        first = Session(store=str(tmp_path))
        computed = first.run(mc_transient_spec)
        assert first.last_stats.computed == 1
        assert first.last_stats.newton_iterations > 0

        revived_session = Session(store=str(tmp_path))
        revived = revived_session.run(mc_transient_spec)
        assert revived.from_cache
        assert revived_session.last_stats.cached == 1
        assert revived_session.last_stats.newton_iterations == 0
        for key in computed.arrays:
            assert arrays_equal(computed.arrays[key], revived.arrays[key]), key

    def test_expand_grid_rewrites_the_base_circuit(self, mc_transient_spec):
        # "circuit.<param>" axes must land on base.circuit for wrapper
        # specs, not trip the circuit-xor-base validation.
        from repro.api import expand_grid

        variants = expand_grid(mc_transient_spec, {"circuit.supply_v": (1.0, 1.2)})
        assert len(variants) == 2
        supplies = [
            dict(v.base.circuit.params)["supply_v"] for v in variants
        ]
        assert supplies == [1.0, 1.2]
        assert all(v.circuit is None for v in variants)

    def test_expanded_seeds_share_the_compiled_bench(self, mc_transient_spec):
        from repro.api import expand_grid

        session = Session(store=None)
        specs = expand_grid(mc_transient_spec, {"seed": (1, 2)})
        study = session.run_many(specs)
        assert len(study) == 2
        assert len(session._built) == 1  # one circuit build for both seeds
        assert not arrays_equal(
            study[0].arrays["outputs"], study[1].arrays["outputs"]
        )

    def test_validation(self, bench_spec):
        perturbations = {"mos_vth": Gaussian(sigma=0.03)}
        base = Transient(circuit=bench_spec, timestep_s=1e-9)
        with pytest.raises(ValueError, match="exactly one"):
            MonteCarlo(
                circuit=bench_spec, base=base, perturbations=perturbations
            )
        with pytest.raises(ValueError, match="exactly one"):
            MonteCarlo(perturbations=perturbations)
        with pytest.raises(ValueError, match="adaptive"):
            MonteCarlo(
                base=dataclasses.replace(base, adaptive=True),
                perturbations=perturbations,
            )
        with pytest.raises(ValueError, match="metric_node"):
            MonteCarlo(
                base=base, perturbations=perturbations, metrics=(METRIC_HOOK,)
            )
        with pytest.raises(ValueError, match="base=Transient"):
            MonteCarlo(
                circuit=bench_spec, perturbations=perturbations, metric_node="out"
            )
        with pytest.raises(TypeError, match="Transient spec"):
            MonteCarlo(base=bench_spec, perturbations=perturbations)
        with pytest.raises(ValueError, match="DC-trial knobs"):
            MonteCarlo(base=base, perturbations=perturbations, gmin=1e-6)
        with pytest.raises(ValueError, match="DC-trial knobs"):
            MonteCarlo(base=base, perturbations=perturbations, tolerance_v=1e-9)

    def test_metrics_are_part_of_the_content_hash(self, mc_transient_spec):
        without = dataclasses.replace(mc_transient_spec, metrics=())
        assert spec_hash(mc_transient_spec) != spec_hash(without)


class TestVariabilityStudyOnSpecPath:
    def test_batched_default_matches_pooled_legacy_path(self, switch_model):
        from functools import partial

        from repro.experiments.variability_xor3 import (
            DEFAULT_SIGMA_BETA,
            DEFAULT_SIGMA_VTH_V,
            delay_metrics_trial,
            run_variability_xor3,
        )

        kwargs = dict(
            trials=4,
            seed=7,
            model=switch_model,
            timestep_s=2e-9,
            step_duration_s=30e-9,
        )
        batched = run_variability_xor3(**kwargs)  # lockstep spec path

        # The reference oracle: the serial per-trial loop on a fresh bench.
        bench = build_variability_bench(model=switch_model, step_duration_s=30e-9)
        analysis = partial(
            delay_metrics_trial,
            output_index=bench.circuit.node_index(bench.output_node),
            stop_time_s=bench.input_sequence.total_duration_s,
            timestep_s=2e-9,
        )
        serial = MonteCarloEngine(
            bench.circuit,
            perturbations={
                "mos_vth": Gaussian(sigma=DEFAULT_SIGMA_VTH_V),
                "mos_beta": Gaussian(sigma=DEFAULT_SIGMA_BETA, relative=True),
            },
            seed=7,
        ).run(analysis, trials=4)

        def comparable(records):
            return [
                {k: (None if v != v else v) for k, v in record.items()}
                for record in records
            ]

        assert comparable(batched.montecarlo.records) == comparable(serial.records)

    def test_cached_rerun_of_the_study_does_zero_newton(self, switch_model):
        from repro.api import default_session
        from repro.experiments.variability_xor3 import run_variability_xor3

        kwargs = dict(
            trials=3,
            seed=13,
            model=switch_model,
            timestep_s=2e-9,
            step_duration_s=30e-9,
        )
        first = run_variability_xor3(**kwargs)
        session = default_session()
        again = run_variability_xor3(**kwargs)
        assert session.last_stats.newton_iterations == 0
        assert session.last_stats.cached >= 1
        assert first.montecarlo.records == again.montecarlo.records
