"""Monte Carlo analysis on the compiled engine: perturb arrays, not netlists.

A variability study re-solves one circuit hundreds of times with slightly
different device parameters.  Re-walking the netlist (or mutating element
objects) per trial would pay the full compilation cost every time; instead,
:class:`MonteCarloEngine` compiles the circuit once and runs each trial by
swapping the :class:`~repro.spice.engine.CompiledCircuit` parameter vectors
in place through the engine's parameter-overlay facility
(:meth:`~repro.spice.engine.CompiledCircuit.set_parameter_overlay`).  The
perturbable vectors are ``mos_vth``, ``mos_beta``, ``mos_lambda``,
``resistor_ohm``, ``cap_c`` and the independent-source multipliers
``vsource_scale`` / ``isource_scale``.

Reproducibility
---------------
Every trial draws from its own :class:`numpy.random.SeedSequence` substream,
constructed as ``SeedSequence(entropy=seed, spawn_key=(trial,))`` — exactly
the child that ``SeedSequence(seed).spawn(...)`` would hand out for that
trial index.  Trial randomness therefore depends only on ``(seed, trial)``,
never on which path runs the trial, so the per-trial
:meth:`MonteCarloEngine.run` loop and the batched solves below produce
bit-identical results.

Parallelism
-----------
:meth:`MonteCarloEngine.run` is a serial per-trial loop in this process.
Process fan-out happens one level up: a ``MonteCarlo`` spec (or a grid of
them) runs through :meth:`repro.api.Session.run_many` with a
:class:`~repro.api.distributed.DistributedExecutor`.

Batched solves
--------------
Same-pattern trials need not be solved one at a time at all:
:meth:`MonteCarloEngine.run_batched_dc` stacks every trial's parameter
vectors (``(trials, count)`` per parameter), assembles the Jacobians
vectorized over the stack and solves each Newton round in one call
instead of one per trial: below the dense/sparse crossover through the
batched dense backend of :mod:`repro.spice.solvers` (``(trials, n, n)``,
one LAPACK call), at or above it through the sparse-batched backend.
:meth:`MonteCarloEngine.run_batched_transient` extends the same idea
along the time axis: all trials march a fixed-step transient in
*lockstep*, evaluating the stimulus waveforms once per step and freezing
each trial within a step the moment it converges.  The
per-trial arithmetic is bit-identical to the serial path in both cases,
so results match ``run`` exactly (and reproduce the nominal solve bit for
bit at zero spread).

Example — a 500-trial XOR3 variability study end to end::

    from repro.circuits import build_lattice_circuit, InputSequence
    from repro.core.library import xor3_lattice_3x3
    from repro.spice import Gaussian, MonteCarloEngine

    bench = build_lattice_circuit(
        xor3_lattice_3x3(),
        input_sequence=InputSequence.exhaustive(("a", "b", "c"), step_duration_s=40e-9),
    )

    def settled_low(engine, trial):
        op = engine.solve_dc(refresh=False)
        return {"out_v": op.solution[engine.circuit.node_index("out")]}

    mc = MonteCarloEngine(
        bench.circuit,
        perturbations={
            "mos_vth": Gaussian(sigma=0.030),            # 30 mV local Vth spread
            "mos_beta": Gaussian(sigma=0.05, relative=True, correlated=True),
        },
        seed=2019,
    )
    result = mc.run(settled_low, trials=500)
    print(result.summary("out_v").percentiles[50.0])

(The full transient version of this study — delay distributions of the
paper's Fig. 11 circuit — lives in
:mod:`repro.experiments.variability_xor3`.)
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.spice.engine import AnalysisEngine, _check_parameter_values, get_engine
from repro.spice.netlist import Circuit

#: Signature of a trial analysis: ``(engine, trial_index) -> metrics``.
TrialAnalysis = Callable[[AnalysisEngine, int], Mapping[str, float]]


# ---------------------------------------------------------------------- #
# distributions
# ---------------------------------------------------------------------- #


class Distribution:
    """Base class of the pluggable perturbation distributions.

    A distribution turns the nominal value vector of one compiled parameter
    (one entry per element) into a perturbed vector, drawing from the
    trial's dedicated random generator.  ``correlated=True`` draws a single
    variate shared by every element (global process shift); otherwise each
    element gets an independent draw (local mismatch).

    All shipped distributions reproduce the nominal vector *bit-for-bit*
    when their spread parameter is zero, which the test-suite relies on.
    """

    def sample(self, rng: np.random.Generator, nominal: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _draws(rng: np.random.Generator, count: int, correlated: bool, uniform: bool) -> np.ndarray:
    if uniform:
        draw = rng.uniform(-1.0, 1.0, size=1 if correlated else count)
    else:
        draw = rng.standard_normal(size=1 if correlated else count)
    if correlated:
        draw = np.repeat(draw, count)
    return draw


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Additive normal perturbation: ``nominal + sigma * N(0, 1)``.

    ``relative=True`` interprets ``sigma`` as a fraction of each nominal
    value's magnitude instead of an absolute spread.
    """

    sigma: float
    relative: bool = False
    correlated: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(
                f"sigma must be finite and non-negative, got {self.sigma!r}"
            )

    def sample(self, rng: np.random.Generator, nominal: np.ndarray) -> np.ndarray:
        draw = _draws(rng, nominal.size, self.correlated, uniform=False)
        scale = self.sigma * np.abs(nominal) if self.relative else self.sigma
        return nominal + scale * draw


@dataclass(frozen=True)
class Uniform(Distribution):
    """Additive uniform perturbation: ``nominal + U(-halfwidth, +halfwidth)``."""

    halfwidth: float
    relative: bool = False
    correlated: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.halfwidth) or self.halfwidth < 0.0:
            raise ValueError(
                f"halfwidth must be finite and non-negative, got {self.halfwidth!r}"
            )

    def sample(self, rng: np.random.Generator, nominal: np.ndarray) -> np.ndarray:
        draw = _draws(rng, nominal.size, self.correlated, uniform=True)
        scale = self.halfwidth * np.abs(nominal) if self.relative else self.halfwidth
        return nominal + scale * draw


@dataclass(frozen=True)
class Lognormal(Distribution):
    """Multiplicative perturbation: ``nominal * exp(sigma_ln * N(0, 1))``.

    The natural choice for positive physical quantities (resistances,
    capacitances, beta): the perturbed values never change sign and the
    spread is relative by construction.
    """

    sigma_ln: float
    correlated: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_ln) or self.sigma_ln < 0.0:
            raise ValueError(
                f"sigma_ln must be finite and non-negative, got {self.sigma_ln!r}"
            )

    def sample(self, rng: np.random.Generator, nominal: np.ndarray) -> np.ndarray:
        draw = _draws(rng, nominal.size, self.correlated, uniform=False)
        return nominal * np.exp(self.sigma_ln * draw)


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #


@dataclass
class MonteCarloResult:
    """Per-trial metric records plus distribution accessors.

    Attributes
    ----------
    trials / seed:
        Run configuration (kept so results are self-describing).
    records:
        One metrics mapping per trial, in trial order.
    """

    trials: int
    seed: int
    records: List[Dict[str, float]]
    _columns: Dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def keys(self) -> Tuple[str, ...]:
        """Metric names present in the records."""
        return tuple(self.records[0]) if self.records else ()

    def samples(self, key: str) -> np.ndarray:
        """All trial values of one metric, in trial order."""
        column = self._columns.get(key)
        if column is None:
            column = np.array([record[key] for record in self.records], dtype=float)
            self._columns[key] = column
        return column

    def summary(self, key: str, percentiles: Sequence[float] = (1, 5, 25, 50, 75, 95, 99)):
        """Distribution summary of one metric (see :mod:`repro.analysis.variability`)."""
        from repro.analysis.variability import summarize_samples

        return summarize_samples(self.samples(key), percentiles=percentiles)

    def yield_fraction(
        self,
        key: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> float:
        """Fraction of trials whose metric lies inside ``[lower, upper]``."""
        from repro.analysis.variability import yield_fraction

        return yield_fraction(self.samples(key), lower=lower, upper=upper)


# ---------------------------------------------------------------------- #
# trial sampling
# ---------------------------------------------------------------------- #


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The dedicated random generator of one trial.

    Equivalent to child ``trial`` of ``SeedSequence(seed).spawn(...)`` but
    constructed directly, so trial ``100`` never has to spawn (or even know
    about) the first hundred children.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def sample_overlay(
    perturbations: Mapping[str, Distribution],
    nominal: Mapping[str, np.ndarray],
    rng: np.random.Generator,
) -> Dict[str, np.ndarray]:
    """Draw one trial's parameter overlay (deterministic in iteration order)."""
    return {
        name: perturbations[name].sample(rng, np.asarray(nominal[name], dtype=float))
        for name in sorted(perturbations)
    }


def _effective_nominal(compiled) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """The trial centers and the base overlay to compose trials with.

    A pre-existing overlay (e.g. an :func:`repro.circuits.corners.applied_corner`
    block) shifts the trial centers: Monte Carlo then samples *around the
    corner*, and the corner overlay is restored — not cleared — when the
    trials finish.
    """
    base_overlay = dict(compiled._overlay) if compiled._overlay else {}
    nominal = compiled.nominal_parameters()
    nominal.update(base_overlay)
    return nominal, base_overlay


@contextlib.contextmanager
def _trial_rows(compiled, stacks: Mapping[str, np.ndarray]):
    """Yield ``apply(trial)``, which overlays one trial's stack rows.

    The stacks come from :meth:`MonteCarloEngine.sample_stacked_overlays`,
    so every row already carries the overlay active on entry (e.g. a
    corner); that base overlay is restored on exit, even on error.  The
    stacks are checked up front, so an invalid draw raises the same
    ``ValueError``, naming its trial, as the batched solves do.
    """
    for name, stack in stacks.items():
        _check_parameter_values(name, stack)
    saved = dict(compiled._overlay) if compiled._overlay else None

    def apply(trial: int) -> None:
        compiled.set_parameter_overlay({name: stack[trial] for name, stack in stacks.items()})

    try:
        yield apply
    finally:
        if saved is not None:
            compiled.set_parameter_overlay(saved)
        else:
            compiled.clear_parameter_overlay()


# ---------------------------------------------------------------------- #
# the Monte Carlo engine
# ---------------------------------------------------------------------- #


class MonteCarloEngine:
    """N-trial variability analysis over one compiled circuit.

    Parameters
    ----------
    circuit:
        The circuit under study; compiled once (through its cached
        :class:`~repro.spice.engine.AnalysisEngine`) and perturbed in place
        per trial.
    perturbations:
        Mapping from compiled parameter name (see
        :data:`repro.spice.engine.PERTURBABLE_PARAMETERS`) to the
        :class:`Distribution` perturbing it.
    seed:
        Root entropy of the per-trial substreams.  Two runs with the same
        seed and trial count are bit-identical.

    Runs compose with an active parameter overlay: inside an
    :func:`repro.circuits.corners.applied_corner` block, trials sample
    around the corner-shifted values and the corner overlay is restored
    when the trials finish — Monte Carlo *at* a corner, not instead of it.
    """

    def __init__(
        self,
        circuit: Circuit,
        perturbations: Mapping[str, Distribution],
        seed: int = 0,
    ):
        if not perturbations:
            raise ValueError("at least one perturbation is required")
        compiled = get_engine(circuit).compiled
        lengths = compiled._parameter_lengths()
        for name, distribution in perturbations.items():
            if name not in lengths:
                raise ValueError(
                    f"unknown parameter {name!r}; expected one of {sorted(lengths)}"
                )
            if lengths[name] == 0:
                raise ValueError(
                    f"cannot perturb {name!r}: the circuit has no such elements"
                )
            if not isinstance(distribution, Distribution):
                raise TypeError(f"perturbation for {name!r} is not a Distribution")
        self.circuit = circuit
        self.perturbations: Dict[str, Distribution] = dict(perturbations)
        self.seed = int(seed)

    def sample_trial_overlay(self, trial: int) -> Dict[str, np.ndarray]:
        """The exact parameter overlay trial ``trial`` would run with."""
        compiled = get_engine(self.circuit).compiled
        compiled.refresh_values()
        nominal, base_overlay = _effective_nominal(compiled)
        sampled = sample_overlay(
            self.perturbations, nominal, trial_generator(self.seed, trial)
        )
        return {**base_overlay, **sampled}

    def sample_stacked_overlays(self, trials: int) -> Dict[str, np.ndarray]:
        """All trial overlays stacked: parameter name -> ``(trials, count)``.

        Row ``t`` of every stack is exactly :meth:`sample_trial_overlay`'s
        value for trial ``t`` (same per-trial seed substreams), so the
        batched and per-trial paths perturb identically.  Parameters only
        present in a base overlay (e.g. an active corner) are broadcast
        across all trials.
        """
        if trials <= 0:
            raise ValueError("at least one trial is required")
        compiled = get_engine(self.circuit).compiled
        compiled.refresh_values()
        nominal, base_overlay = _effective_nominal(compiled)
        names = sorted(set(base_overlay) | set(self.perturbations))
        stacks = {
            name: np.empty((trials, np.asarray(nominal[name]).size)) for name in names
        }
        for trial in range(trials):
            overlay = dict(base_overlay)
            overlay.update(
                sample_overlay(
                    self.perturbations, nominal, trial_generator(self.seed, trial)
                )
            )
            for name in names:
                stacks[name][trial] = overlay[name]
        return stacks

    def run_batched_dc(
        self,
        trials: int,
        initial_guess: Optional[np.ndarray] = None,
        solver: Any = None,
        max_iterations: int = 300,
        tolerance_v: float = 1e-7,
        gmin: float = 1e-9,
        damping_v: float = 0.6,
        time_s: float = 0.0,
        newton: Optional[str] = None,
    ):
        """Solve all trials' DC operating points as one stack.

        Instead of ``trials`` per-trial overlay swaps and solves, the
        sampled parameter stacks are handed to
        :meth:`~repro.spice.engine.AnalysisEngine.solve_dc_batched`, which
        assembles the Jacobians vectorized over the stack and solves each
        Newton round in one call — one batched LAPACK call below the
        dense/sparse crossover, with the default ``solver`` (``"auto"``).  The
        per-trial arithmetic is bit-identical to the serial path (same seed
        substreams, same assembly order, same LAPACK routine per system),
        so at zero spread every trial reproduces the nominal solve exactly.
        Failing trials follow the serial policy inside the stack — a
        singular system bumps that trial's gmin, and trials the plain
        Newton cannot converge run the gmin/source-stepping ladders
        together — so every trial matches :meth:`run_per_trial_dc`.

        The Newton-control defaults match :meth:`AnalysisEngine.solve_dc`,
        so a serial trial analysis calling ``engine.solve_dc(refresh=False)``
        and this path see identical iterations.

        Returns a :class:`~repro.spice.dcop.BatchedOperatingPoints`.
        """
        stacks = self.sample_stacked_overlays(trials)
        return get_engine(self.circuit).solve_dc_batched(
            stacks,
            trials=trials,
            initial_guess=initial_guess,
            max_iterations=max_iterations,
            tolerance_v=tolerance_v,
            gmin=gmin,
            damping_v=damping_v,
            time_s=time_s,
            refresh=False,
            solver=solver,
            newton=newton,
        )

    def run_per_trial_dc(
        self,
        trials: int,
        solver: Any = None,
        max_iterations: int = 300,
        tolerance_v: float = 1e-7,
        gmin: float = 1e-9,
        damping_v: float = 0.6,
        time_s: float = 0.0,
        newton: Optional[str] = None,
    ):
        """Solve each trial's DC operating point serially, one overlay swap per trial.

        The per-trial counterpart (and bit-for-bit oracle) of
        :meth:`run_batched_dc`: same seeded :meth:`sample_stacked_overlays`
        substreams, same :class:`~repro.spice.dcop.BatchedOperatingPoints`
        shape, one full ``solve_dc`` per trial (so a trial the plain Newton
        converges reports ``"newton"``, not ``"batched-newton"``).  A
        pre-existing base overlay is composed into every trial and restored
        when the trials finish.
        """
        from repro.spice.dcop import BatchedOperatingPoints

        engine = get_engine(self.circuit)
        stacks = self.sample_stacked_overlays(trials)
        points = []
        with _trial_rows(engine.compiled, stacks) as apply:
            for trial in range(trials):
                apply(trial)
                points.append(
                    engine.solve_dc(
                        max_iterations=max_iterations,
                        tolerance_v=tolerance_v,
                        gmin=gmin,
                        damping_v=damping_v,
                        time_s=time_s,
                        refresh=False,
                        solver=solver,
                        newton=newton,
                    )
                )
        infos = [point.convergence_info for point in points]
        return BatchedOperatingPoints(
            circuit=self.circuit,
            solutions=np.stack([point.solution for point in points]),
            iterations=np.array([point.iterations for point in points], dtype=int),
            converged=np.array([point.converged for point in points], dtype=bool),
            max_residuals=np.array([point.max_residual for point in points], dtype=float),
            strategies=tuple(info.strategy for info in infos),
            factorizations=sum(info.factorizations for info in infos),
            factorization_reuses=sum(info.factorization_reuses for info in infos),
        )

    def run_batched_transient(
        self,
        trials: int,
        stop_time_s: float,
        timestep_s: float,
        integration: str = "be",
        max_newton_iterations: int = 100,
        tolerance_v: float = 1e-6,
        gmin: float = 1e-9,
        use_initial_conditions: bool = False,
        solver: Any = None,
        newton: Optional[str] = None,
    ):
        """March all trials' transients in lockstep on one fixed-step grid.

        The batched counterpart of a :meth:`run` whose analysis calls
        ``engine.solve_transient(stop_time_s, timestep_s)`` per trial: the
        sampled parameter stacks (same :meth:`sample_stacked_overlays`
        substreams, so trial ``t`` perturbs identically) are handed to
        :meth:`~repro.spice.engine.AnalysisEngine.solve_transient_batched`,
        which advances the whole ``(trials, n)`` stack one shared timestep
        at a time — waveforms evaluated once per step, each Newton round
        one stacked solve (one batched LAPACK call below the dense/sparse
        crossover), converged trials frozen within the step.
        Every trial's waveform is bit-identical to the per-trial path on
        the same grid, failures included: a singular system bumps that
        trial's gmin, and a step that does not converge keeps its last
        iterate and marches on, exactly as the serial fixed-step march does.

        The Newton-control defaults match
        :meth:`~repro.spice.engine.AnalysisEngine.solve_transient`, so a
        serial trial analysis calling
        ``engine.solve_transient(stop_time_s, timestep_s)`` and this path
        produce identical waveforms.  Adaptive stepping cannot be batched
        (lockstep needs the shared grid) — use :meth:`run` for adaptive
        per-trial marches.

        Returns a :class:`~repro.spice.transient.BatchedTransientResult`.
        """
        stacks = self.sample_stacked_overlays(trials)
        return get_engine(self.circuit).solve_transient_batched(
            stop_time_s,
            timestep_s,
            params=stacks,
            trials=trials,
            integration=integration,
            max_newton_iterations=max_newton_iterations,
            tolerance_v=tolerance_v,
            gmin=gmin,
            use_initial_conditions=use_initial_conditions,
            refresh=False,
            solver=solver,
            newton=newton,
        )

    def run_per_trial_transient(
        self,
        trials: int,
        stop_time_s: float,
        timestep_s: float,
        integration: str = "be",
        max_newton_iterations: int = 100,
        tolerance_v: float = 1e-6,
        gmin: float = 1e-9,
        use_initial_conditions: bool = False,
        solver: Any = None,
        newton: Optional[str] = None,
    ):
        """March each trial's transient serially, one overlay swap per trial.

        The per-trial counterpart (and bit-for-bit oracle) of
        :meth:`run_batched_transient`: same seeded
        :meth:`sample_stacked_overlays` substreams, same fixed-step grid,
        same :class:`~repro.spice.transient.BatchedTransientResult` shape —
        only the marching differs (one full ``solve_transient`` per trial
        instead of the lockstep batch).  A pre-existing base overlay (e.g.
        an active corner) is composed into every trial and restored when
        the trials finish.
        """
        from repro.spice.transient import BatchedTransientResult

        engine = get_engine(self.circuit)
        stacks = self.sample_stacked_overlays(trials)
        rows = []
        converged = np.zeros(trials, dtype=bool)
        iterations = np.zeros(trials, dtype=int)
        residuals = np.zeros(trials, dtype=float)
        strategies = []
        factorizations = 0
        reuses = 0
        time_s = None
        with _trial_rows(engine.compiled, stacks) as apply:
            for trial in range(trials):
                apply(trial)
                result = engine.solve_transient(
                    stop_time_s,
                    timestep_s,
                    integration=integration,
                    max_newton_iterations=max_newton_iterations,
                    tolerance_v=tolerance_v,
                    gmin=gmin,
                    use_initial_conditions=use_initial_conditions,
                    solver=solver,
                    newton=newton,
                )
                info = result.convergence_info
                time_s = result.time_s.copy()
                rows.append(result.solutions)
                converged[trial] = result.converged
                iterations[trial] = info.newton_iterations
                residuals[trial] = info.max_newton_residual_v
                strategies.append(info.strategy)
                factorizations += info.factorizations
                reuses += info.factorization_reuses
        return BatchedTransientResult(
            circuit=self.circuit,
            time_s=time_s,
            solutions=np.stack(rows),
            converged=converged,
            newton_iterations=iterations,
            max_residuals=residuals,
            strategies=tuple(strategies),
            factorizations=factorizations,
            factorization_reuses=reuses,
        )

    def run(self, analysis: TrialAnalysis, trials: int) -> MonteCarloResult:
        """Run ``trials`` perturbed solves and collect the metric records.

        Parameters
        ----------
        analysis:
            ``(engine, trial_index) -> {metric: value}``; called with the
            overlay already applied.
        trials:
            Number of trials, run serially in this process.
        """
        engine = get_engine(self.circuit)
        stacks = self.sample_stacked_overlays(trials)
        records: List[Dict[str, float]] = []
        with _trial_rows(engine.compiled, stacks) as apply:
            for trial in range(trials):
                apply(trial)
                metrics = analysis(engine, trial)
                if not isinstance(metrics, Mapping):
                    raise TypeError(
                        "a trial analysis must return a mapping of metric name to value, "
                        f"got {type(metrics).__name__}"
                    )
                records.append(dict(metrics))
        return MonteCarloResult(trials=trials, seed=self.seed, records=records)
