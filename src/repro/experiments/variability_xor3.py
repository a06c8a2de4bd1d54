"""Fig. 11 under process variability: XOR3 delay distributions.

The paper's Fig. 11 transient is a single-corner simulation.  This
experiment reruns its circuit — the 3x3 XOR3 lattice with the 500 kOhm
pull-up, 1.2 V supply and femto-farad load — hundreds of times with the
transistor parameters perturbed per trial (threshold-voltage spread,
beta spread), producing the rise/fall-delay and logic-level distributions a
variability-aware reading of the figure calls for.

Each trial drives a reduced stimulus that toggles a single input
(``a``: 0 -> 1 -> 0 with ``b = c = 0``), so the output — the inverse of
XOR3 — completes exactly one falling and one rising edge.  That keeps a
500-trial study tractable (the full eight-vector exhaustive stimulus would
cost about seven times more per trial) while measuring the same 10-90 %
edges the paper reports.

The study is one declarative ``MonteCarlo(base=Transient(...))`` spec run
through the shared :class:`repro.api.Session`: the lattice circuit is
compiled once, every trial's parameter stacks are sampled from
deterministic per-trial seed substreams, and all trials march their
transients in *lockstep* through the batched engine — each Newton round
one stacked LAPACK call, waveforms evaluated once per step.  The records
are bit-identical to the per-trial path (which ``adaptive=True`` takes,
since per-trial adaptive grids cannot march in lockstep), and an identical
re-run replays from the session's content-hash cache with zero Newton
iterations.

Example — the end-to-end 500-trial study::

    from repro.experiments.variability_xor3 import run_variability_xor3

    result = run_variability_xor3(trials=500, seed=2019)
    print(result.report())
    print(result.rise_summary.percentiles[95.0])   # 95th-percentile rise time
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from repro.analysis.reporting import Table, format_engineering
from repro.analysis.variability import DistributionSummary
from repro.analysis.waveform_metrics import edge_and_level_metrics
from repro.circuits.lattice_netlist import LatticeCircuit, build_lattice_circuit
from repro.circuits.sizing import default_switch_model
from repro.circuits.testbench import InputSequence
from repro.core.lattice import Lattice
from repro.core.library import xor3_lattice_3x3
from repro.spice.elements.switch4t import FourTerminalSwitchModel
from repro.spice.engine import AnalysisEngine
from repro.spice.montecarlo import Gaussian, MonteCarloEngine, MonteCarloResult

#: Default local threshold-voltage spread (30 mV absolute sigma).
DEFAULT_SIGMA_VTH_V = 0.030

#: Default relative beta spread (5 % sigma).
DEFAULT_SIGMA_BETA = 0.05


def _toggle_sequence(
    supply_v: float, step_duration_s: float, transition_s: float
) -> InputSequence:
    """a: 0 -> 1 -> 0 with b = c = 0; the output falls, then rises."""
    return InputSequence.from_assignments(
        ("a", "b", "c"),
        [
            {"a": False, "b": False, "c": False},
            {"a": True, "b": False, "c": False},
            {"a": False, "b": False, "c": False},
        ],
        step_duration_s=step_duration_s,
        high_level_v=supply_v,
        transition_s=transition_s,
    )


def build_variability_bench(
    lattice: Optional[Lattice] = None,
    model: Optional[FourTerminalSwitchModel] = None,
    supply_v: float = 1.2,
    pullup_ohm: float = 500e3,
    step_duration_s: float = 40e-9,
    transition_s: float = 1e-9,
) -> LatticeCircuit:
    """The study's bench (lattice + one-input toggle stimulus) as a factory.

    Module-level so a :class:`repro.api.CircuitSpec` can name it; the
    variability study and its corner cross-checks share the compiled bench
    through the session this way.
    """
    if lattice is None:
        lattice = xor3_lattice_3x3()
    if model is None:
        model = default_switch_model()
    sequence = _toggle_sequence(supply_v, step_duration_s, transition_s=transition_s)
    return build_lattice_circuit(
        lattice,
        model=model,
        input_sequence=sequence,
        supply_v=supply_v,
        pullup_ohm=pullup_ohm,
    )


def variability_circuit_spec(
    lattice: Optional[Lattice] = None,
    model: Optional[FourTerminalSwitchModel] = None,
    supply_v: float = 1.2,
    pullup_ohm: float = 500e3,
    step_duration_s: float = 40e-9,
):
    """The study's :class:`repro.api.CircuitSpec`, parameterized identically
    everywhere.

    Content hashing equalizes implicit and explicit *spec-field* defaults,
    but factory ``params`` are hashed as given — so every caller must spell
    them the same way to share the session-built bench.  This helper is
    that single spelling; :func:`run_variability_xor3` and the examples
    both use it.
    """
    from repro.api import CircuitSpec

    return CircuitSpec(
        build_variability_bench,
        params={
            "lattice": lattice,
            "model": model,
            "supply_v": supply_v,
            "pullup_ohm": pullup_ohm,
            "step_duration_s": step_duration_s,
        },
    )


def delay_metrics_trial(
    engine: AnalysisEngine,
    trial: int,
    output_index: int = 0,
    stop_time_s: float = 120e-9,
    timestep_s: float = 1e-9,
    adaptive: bool = False,
    lte_tolerance_v: float = 2e-3,
) -> Dict[str, float]:
    """One Monte-Carlo trial: transient solve plus edge/level extraction.

    Driven through :func:`functools.partial` by
    :meth:`~repro.spice.montecarlo.MonteCarloEngine.run`.  Returns the
    metrics the study aggregates; a waveform that never completes an edge
    reports ``nan`` for that delay, which the aggregation layer counts
    against yield.

    ``adaptive=True`` routes the per-trial transient through the engine's
    LTE step-size controller, which cuts the step count on the long settled
    stretches of the toggle stimulus — the dominant per-trial cost of a
    variability study.
    """
    transient = engine.solve_transient(
        stop_time_s, timestep_s, adaptive=adaptive, lte_tolerance_v=lte_tolerance_v
    )
    return _metrics_from_waveform(
        transient.time_s, transient.solutions[:, output_index], transient.converged
    )


#: Dotted path of the study's waveform-metric hook, as a
#: ``MonteCarlo(base=Transient(...))`` spec names it.
METRIC_HOOK = "repro.analysis.waveform_metrics:edge_and_level_metrics"


def _metrics_from_waveform(time_s, vout, converged: bool) -> Dict[str, float]:
    """Edge/level metrics of one output waveform (shared trial/nominal path).

    The metric set is the public :data:`METRIC_HOOK`
    (:func:`repro.analysis.waveform_metrics.edge_and_level_metrics`) plus
    the convergence flag the spec path appends from the solver statistics.
    """
    return {**edge_and_level_metrics(time_s, vout), "converged": float(converged)}


def _records_from_spec_result(result) -> list:
    """Legacy per-trial record dicts from a ``MonteCarlo(base=Transient(...))``
    spec :class:`~repro.api.results.Result` (metric columns + converged flag)."""
    keys = list(result.meta.get("metric_keys", ()))
    converged = result.arrays["converged"]
    columns = {key: result.arrays[f"metric_{key}"] for key in keys}
    return [
        {
            **{key: float(columns[key][trial]) for key in keys},
            "converged": float(converged[trial]),
        }
        for trial in range(len(converged))
    ]


@dataclass
class VariabilityResult:
    """Delay and level distributions of the XOR3 lattice under spread.

    Attributes
    ----------
    bench:
        The (nominal) lattice circuit that was perturbed.
    montecarlo:
        Raw per-trial records (see :class:`~repro.spice.montecarlo.MonteCarloResult`).
    sigma_vth_v / sigma_beta:
        The applied spreads.
    nominal:
        Metrics of the unperturbed circuit, for reference against the
        distributions.
    """

    bench: LatticeCircuit
    montecarlo: MonteCarloResult
    sigma_vth_v: float
    sigma_beta: float
    nominal: Dict[str, float]

    @property
    def rise_summary(self) -> DistributionSummary:
        return self.montecarlo.summary("rise_time_s")

    @property
    def fall_summary(self) -> DistributionSummary:
        return self.montecarlo.summary("fall_time_s")

    @property
    def swing_summary(self) -> DistributionSummary:
        return self.montecarlo.summary("swing_v")

    def functional_yield(self, min_swing_fraction: float = 0.5) -> float:
        """Fraction of trials whose output swing clears the given fraction
        of the supply (trials without a complete edge count as failures)."""
        return self.montecarlo.yield_fraction(
            "swing_v", lower=min_swing_fraction * self.bench.supply_v
        )

    def report(self) -> str:
        table = Table(
            ["quantity", "nominal", "median", "p5", "p95", "sigma"],
            title=(
                f"XOR3 lattice variability — {self.montecarlo.trials} trials, "
                f"sigma(Vth) = {self.sigma_vth_v * 1e3:.0f} mV, "
                f"sigma(beta)/beta = {self.sigma_beta * 1e2:.0f} %"
            ),
        )
        rows = (
            ("rise time (10-90 %)", "rise_time_s", "s"),
            ("fall time (90-10 %)", "fall_time_s", "s"),
            ("zero-state output", "low_v", "V"),
            ("one-state output", "high_v", "V"),
            ("output swing", "swing_v", "V"),
        )
        for label, key, unit in rows:
            summary = self.montecarlo.summary(key)
            table.add_row(
                [
                    label,
                    format_engineering(self.nominal[key], unit),
                    format_engineering(summary.median, unit),
                    format_engineering(summary.percentiles[5.0], unit),
                    format_engineering(summary.percentiles[95.0], unit),
                    format_engineering(summary.std, unit),
                ]
            )
        yield_line = (
            f"functional yield (swing > half supply): "
            f"{100.0 * self.functional_yield():.1f} %"
        )
        return table.render() + "\n" + yield_line


def run_variability_xor3(
    trials: int = 500,
    seed: int = 2019,
    sigma_vth_v: float = DEFAULT_SIGMA_VTH_V,
    sigma_beta: float = DEFAULT_SIGMA_BETA,
    correlated_beta: bool = False,
    lattice: Optional[Lattice] = None,
    model: Optional[FourTerminalSwitchModel] = None,
    supply_v: float = 1.2,
    pullup_ohm: float = 500e3,
    step_duration_s: float = 40e-9,
    timestep_s: float = 1e-9,
    adaptive: bool = False,
    lte_tolerance_v: float = 2e-3,
) -> VariabilityResult:
    """Run the XOR3 variability study.

    Parameters
    ----------
    trials / seed:
        Monte-Carlo trial count and root seed.  Results are bit-identical
        for a given seed, whichever of the lockstep-batched or per-trial
        paths runs the study.
    sigma_vth_v:
        Absolute per-transistor threshold spread [V].
    sigma_beta:
        Relative per-transistor beta spread; ``correlated_beta=True`` turns
        it into a single global (process-wide) draw per trial instead of
        local mismatch.
    lattice / model / supply_v / pullup_ohm:
        Circuit configuration (paper defaults).
    step_duration_s / timestep_s:
        Stimulus step length and transient timestep of the reduced
        one-input toggle stimulus.
    adaptive / lte_tolerance_v:
        Route every per-trial transient through the engine's adaptive step
        controller (``timestep_s`` becomes the initial step); cuts the
        per-trial step count on the settled stretches of the stimulus.
        Adaptive grids differ per trial, so this runs the serial
        :meth:`~repro.spice.montecarlo.MonteCarloEngine.run` loop instead
        of the lockstep batched path.  Fixed-step studies (the default)
        run as one declarative ``MonteCarlo(base=Transient(...))`` spec
        through the shared session: all trials march in lockstep through
        the batched engine
        (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_transient`)
        and an identical re-run replays from the content-hash cache with
        zero Newton iterations.
    """
    from repro.api import MonteCarlo, Transient, default_session

    session = default_session()
    circuit_spec = variability_circuit_spec(
        lattice=lattice,
        model=model,
        supply_v=supply_v,
        pullup_ohm=pullup_ohm,
        step_duration_s=step_duration_s,
    )
    bench = session.build_circuit(circuit_spec)
    sequence = bench.input_sequence
    output_index = bench.circuit.node_index(bench.output_node)
    analysis = partial(
        delay_metrics_trial,
        output_index=output_index,
        stop_time_s=sequence.total_duration_s,
        timestep_s=timestep_s,
        adaptive=adaptive,
        lte_tolerance_v=lte_tolerance_v,
    )

    # The nominal (unperturbed) reference goes through the declarative API,
    # so an identical re-run replays from the session's content-hash cache.
    nominal_result = session.run(
        Transient(
            circuit=circuit_spec,
            timestep_s=timestep_s,
            adaptive=adaptive,
            lte_tolerance_v=lte_tolerance_v,
        )
    )
    nominal = _metrics_from_waveform(
        nominal_result.arrays["time_s"],
        nominal_result.arrays["solutions"][:, output_index],
        nominal_result.converged,
    )

    perturbations = {
        "mos_vth": Gaussian(sigma=sigma_vth_v),
        "mos_beta": Gaussian(
            sigma=sigma_beta, relative=True, correlated=correlated_beta
        ),
    }
    if adaptive:
        # Adaptive per-trial grids cannot march in lockstep.
        montecarlo = MonteCarloEngine(
            bench.circuit, perturbations=perturbations, seed=seed
        ).run(analysis, trials=trials)
    else:
        # The flagship path: the whole study is one declarative
        # MonteCarlo(base=Transient(...)) spec — all trials march in
        # lockstep through the batched engine, and an identical re-run
        # replays from the session cache with zero Newton work.
        study = session.run(
            MonteCarlo(
                base=Transient(circuit=circuit_spec, timestep_s=timestep_s),
                perturbations=perturbations,
                trials=trials,
                seed=seed,
                mode="batched",
                metrics=(METRIC_HOOK,),
                metric_node=bench.output_node,
            )
        )
        montecarlo = MonteCarloResult(
            trials=trials, seed=seed, records=_records_from_spec_result(study)
        )

    return VariabilityResult(
        bench=bench,
        montecarlo=montecarlo,
        sigma_vth_v=sigma_vth_v,
        sigma_beta=sigma_beta,
        nominal=nominal,
    )
