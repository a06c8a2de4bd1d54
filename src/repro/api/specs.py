"""Declarative analysis specs: what to compute, described as frozen data.

A spec captures *everything* a computation depends on — the circuit factory
and its parameters, the analysis knobs, the solver backend, variability
configuration and seeds — as plain frozen dataclasses.  Specs are:

* **hashable by content** (:func:`repro.api.hashing.spec_hash`), which is
  what the result cache keys on;
* **picklable**, so executors can ship them to worker processes;
* **declarative** — building a spec performs no computation; the
  :class:`~repro.api.session.Session` decides when and where to run it.

The variants mirror the engine's analyses one to one:

========================  =================================================
:class:`DCOp`             :meth:`~repro.spice.engine.AnalysisEngine.solve_dc`
:class:`DCSweep`          :meth:`~repro.spice.engine.AnalysisEngine.dc_sweep`
:class:`Transient`        :meth:`~repro.spice.engine.AnalysisEngine.solve_transient`
:class:`MonteCarlo`       :class:`~repro.spice.montecarlo.MonteCarloEngine`
                          (DC trials, or ``base=Transient(...)`` lockstep
                          transient trials; batched or per-trial)
:class:`Corners`          :func:`~repro.circuits.corners.run_corners` around
                          any of the above
========================  =================================================

Every knob keeps the default of its engine method, so a spec built with
defaults is bit-identical to the corresponding engine call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.hashing import callable_path, spec_hash
from repro.spice.montecarlo import Distribution
from repro.spice.netlist import Circuit

#: Corner names of the standard five-corner set, in canonical order.
STANDARD_CORNER_NAMES: Tuple[str, ...] = ("TT", "FF", "SS", "FS", "SF")


def resolve_factory(factory: Union[str, Any]):
    """Resolve a circuit factory given as a callable or ``module:name`` path."""
    if callable(factory):
        return factory
    if isinstance(factory, str):
        module_name, _, attribute = factory.partition(":")
        if not attribute:
            module_name, _, attribute = factory.rpartition(".")
        if not module_name or not attribute:
            raise ValueError(
                f"factory path {factory!r} is not of the form 'module:function'"
            )
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attribute)
        except AttributeError as error:
            raise ValueError(
                f"module {module_name!r} has no factory {attribute!r}"
            ) from error
    raise TypeError("factory must be a callable or a 'module:function' string")


def circuit_of(built: Any) -> Circuit:
    """The :class:`~repro.spice.netlist.Circuit` inside a factory's product.

    Factories may return a bare circuit or a bench object carrying one (e.g.
    :class:`~repro.circuits.lattice_netlist.LatticeCircuit`,
    :class:`~repro.circuits.series_chain.SeriesChainCircuit`).
    """
    if isinstance(built, Circuit):
        return built
    circuit = getattr(built, "circuit", None)
    if isinstance(circuit, Circuit):
        return circuit
    raise TypeError(
        f"the circuit factory returned {type(built).__qualname__}, which is "
        "neither a Circuit nor an object with a .circuit attribute"
    )


@dataclass(frozen=True)
class CircuitSpec:
    """A circuit described as *factory + parameters* instead of an object.

    ``factory`` is a module-level callable (or its ``module:function``
    import path); ``params`` are the keyword arguments it is called with.
    Two specs naming the same factory with the same parameters hash
    identically, so the session builds (and compiles) the circuit exactly
    once however many analysis specs reference it.
    """

    factory: Union[str, Any]
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "params", params)
        # Normalize callables to their import path up front so the factory
        # field hashes/pickles identically either way it was given.
        if callable(self.factory):
            object.__setattr__(self, "factory", callable_path(self.factory))

    def build(self) -> Any:
        """Call the factory; returns whatever it returns (circuit or bench)."""
        return resolve_factory(self.factory)(**dict(self.params))

    @property
    def content_hash(self) -> str:
        return spec_hash(self)


class AnalysisSpec:
    """Base class of the analysis spec variants (shared accessors only)."""

    kind: str = "?"

    def circuit_spec(self) -> CircuitSpec:
        spec = getattr(self, "circuit", None)
        if not isinstance(spec, CircuitSpec):
            raise TypeError(f"{type(self).__qualname__} carries no CircuitSpec")
        return spec

    @property
    def content_hash(self) -> str:
        return spec_hash(self)


def _check_solver(solver: Any) -> None:
    if solver is not None and not isinstance(solver, str):
        raise TypeError(
            "spec solver must be a backend name (e.g. 'auto', 'dense', "
            "'sparse', 'batched', 'sparse-batched') or None; solver "
            "*instances* are not content-hashable — call the engine methods "
            "directly for one-off instances"
        )


def _check_newton(newton: Any) -> None:
    if newton not in (None, "full", "reuse"):
        raise ValueError(
            f"newton must be None, 'full' or 'reuse', got {newton!r}"
        )


@dataclass(frozen=True)
class DCOp(AnalysisSpec):
    """DC operating point (engine: ``AnalysisEngine.solve_dc``)."""

    kind = "dcop"

    circuit: CircuitSpec
    max_iterations: int = 300
    tolerance_v: float = 1e-7
    gmin: float = 1e-9
    damping_v: float = 0.6
    time_s: float = 0.0
    solver: Optional[str] = "auto"
    newton: Optional[str] = None

    def __post_init__(self) -> None:
        _check_solver(self.solver)
        _check_newton(self.newton)


@dataclass(frozen=True)
class DCSweep(AnalysisSpec):
    """DC sweep of one independent source (engine: ``AnalysisEngine.dc_sweep``)."""

    kind = "dcsweep"

    circuit: CircuitSpec
    source: str = ""
    values: Tuple[float, ...] = ()
    gmin: float = 1e-12
    max_iterations: int = 200
    solver: Optional[str] = "auto"
    newton: Optional[str] = None

    def __post_init__(self) -> None:
        _check_solver(self.solver)
        _check_newton(self.newton)
        if not self.source:
            raise ValueError("DCSweep needs the name of the swept source")
        values = tuple(float(v) for v in np.asarray(self.values, dtype=float).ravel())
        if not values:
            raise ValueError("DCSweep needs at least one sweep value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Transient(AnalysisSpec):
    """Transient analysis, fixed-step or adaptive (engine: ``solve_transient``).

    ``stop_time_s=None`` means "the bench's input-sequence duration": valid
    only when the circuit factory returns a bench object exposing an
    ``input_sequence`` with a ``total_duration_s``.
    """

    kind = "transient"

    circuit: CircuitSpec
    stop_time_s: Optional[float] = None
    timestep_s: float = 1e-9
    integration: str = "be"
    max_newton_iterations: int = 100
    tolerance_v: float = 1e-6
    gmin: float = 1e-9
    use_initial_conditions: bool = False
    adaptive: bool = False
    lte_tolerance_v: float = 2e-3
    min_timestep_s: Optional[float] = None
    max_timestep_s: Optional[float] = None
    solver: Optional[str] = "auto"
    newton: Optional[str] = None

    def __post_init__(self) -> None:
        _check_solver(self.solver)
        _check_newton(self.newton)
        if self.integration not in ("be", "trap"):
            raise ValueError("integration must be 'be' or 'trap'")


@dataclass(frozen=True)
class MonteCarlo(AnalysisSpec):
    """Monte-Carlo variability study (engine: ``MonteCarloEngine``).

    ``perturbations`` maps compiled parameter names (see
    :data:`repro.spice.engine.PERTURBABLE_PARAMETERS`) to the frozen
    :class:`~repro.spice.montecarlo.Distribution` dataclasses.  ``mode``
    selects the solve path: ``"batched"`` stacks all trials into batched
    LAPACK Newton rounds, ``"per-trial"`` swaps overlays and solves trial
    by trial; both produce bit-identical solutions.

    Two base analyses are supported:

    * **DC** (the default): give ``circuit`` directly; every trial solves
      the operating point with the DC knobs below
      (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_dc`).
    * **Transient**: give ``base=Transient(...)`` instead of ``circuit``;
      every trial marches that transient on its fixed-step grid
      (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_transient`
      in ``"batched"`` mode — the lockstep march).  ``metric_node`` names
      the output node whose per-trial waveform is kept, and ``metrics``
      lists dotted-path *waveform-metric hooks* (module-level callables
      ``(time_s, values) -> {name: value}``, e.g.
      ``"repro.analysis.waveform_metrics:edge_and_level_metrics"`` or
      ``"repro.analysis.waveform_metrics:delay_crossing"``) applied to
      that waveform — so a Fig. 11-style delay study is fully declarative,
      cacheable and hashable.  The base must use fixed-step integration
      (``adaptive=False``): lockstep batching requires a shared grid.
    """

    kind = "montecarlo"

    circuit: Optional[CircuitSpec] = None
    base: Optional[Transient] = None
    perturbations: Tuple[Tuple[str, Distribution], ...] = ()
    trials: int = 1
    seed: int = 0
    mode: str = "batched"
    metrics: Tuple[str, ...] = ()
    metric_node: str = ""
    max_iterations: int = 300
    tolerance_v: float = 1e-7
    gmin: float = 1e-9
    damping_v: float = 0.6
    time_s: float = 0.0
    solver: Optional[str] = "auto"
    newton: Optional[str] = None

    def __post_init__(self) -> None:
        _check_solver(self.solver)
        _check_newton(self.newton)
        if self.mode not in ("batched", "per-trial"):
            raise ValueError("mode must be 'batched' or 'per-trial'")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if (self.circuit is None) == (self.base is None):
            raise ValueError(
                "give exactly one of circuit= (DC trials) or base= "
                "(a Transient spec for transient trials)"
            )
        if self.base is not None and not isinstance(self.base, Transient):
            raise TypeError("MonteCarlo.base must be a Transient spec")
        if self.base is not None and self.base.adaptive:
            raise ValueError(
                "MonteCarlo(base=Transient(adaptive=True)) is not supported: "
                "lockstep batching (and per-trial record parity) needs the "
                "shared fixed-step grid — use MonteCarloEngine.run for "
                "adaptive per-trial marches"
            )
        if self.base is not None:
            # The DC-trial Newton knobs have no effect on a transient study
            # (the base spec carries its own controls); silently ignoring a
            # non-default value would also split cache entries between
            # specs that compute the same thing.
            dc_knobs = ("max_iterations", "tolerance_v", "gmin", "damping_v", "time_s")
            dc_defaults = {
                f.name: f.default for f in fields(self) if f.name in dc_knobs
            }
            overridden = [
                name for name in dc_knobs if getattr(self, name) != dc_defaults[name]
            ]
            if overridden:
                raise ValueError(
                    f"{overridden} are DC-trial knobs and have no effect with "
                    "base=Transient(...); set the transient controls "
                    "(max_newton_iterations, tolerance_v, gmin, ...) on the "
                    "base spec instead"
                )
        metrics = tuple(str(path) for path in self.metrics)
        object.__setattr__(self, "metrics", metrics)
        if self.base is None and (metrics or self.metric_node):
            raise ValueError(
                "metrics/metric_node describe the output waveform of a "
                "transient study; they need base=Transient(...)"
            )
        if metrics and not self.metric_node:
            raise ValueError("metrics need metric_node (the waveform to measure)")
        perturbations = self.perturbations
        if isinstance(perturbations, Mapping):
            perturbations = tuple(sorted(perturbations.items()))
        else:
            perturbations = tuple(sorted(perturbations))
        if not perturbations:
            raise ValueError("at least one perturbation is required")
        for name, distribution in perturbations:
            if not isinstance(distribution, Distribution):
                raise TypeError(f"perturbation for {name!r} is not a Distribution")
        object.__setattr__(self, "perturbations", perturbations)

    def circuit_spec(self) -> CircuitSpec:
        if self.base is not None:
            return self.base.circuit_spec()
        return super().circuit_spec()


@dataclass(frozen=True)
class Corners(AnalysisSpec):
    """Process-corner sweep of another analysis (engine: ``run_corners``).

    Runs ``base`` (a :class:`DCOp`, :class:`DCSweep` or :class:`Transient`)
    once per corner with the corner's parameter overlay applied, sharing one
    compiled circuit across the whole set.
    """

    kind = "corners"

    base: AnalysisSpec = None
    corners: Tuple[str, ...] = STANDARD_CORNER_NAMES
    beta_spread: float = 0.10
    vth_shift_v: float = 0.045

    def __post_init__(self) -> None:
        if not isinstance(self.base, (DCOp, DCSweep, Transient)):
            raise TypeError("Corners.base must be a DCOp, DCSweep or Transient spec")
        corners = tuple(str(name) for name in self.corners)
        if not corners:
            raise ValueError("at least one corner is required")
        unknown = set(corners) - set(STANDARD_CORNER_NAMES)
        if unknown:
            raise ValueError(
                f"unknown corner names {sorted(unknown)}; expected a subset of "
                f"{STANDARD_CORNER_NAMES}"
            )
        object.__setattr__(self, "corners", corners)

    def circuit_spec(self) -> CircuitSpec:
        return self.base.circuit_spec()


def expand_grid(
    spec: AnalysisSpec, grid: Mapping[str, Sequence[Any]]
) -> Tuple[AnalysisSpec, ...]:
    """The product grid of spec variants over the given axes.

    ``grid`` maps field names to value sequences.  A plain name overrides a
    field of the analysis spec itself; a ``"circuit.<param>"`` name
    overrides one of the circuit factory's parameters.  The product is
    taken in the (sorted) axis order, last axis fastest::

        specs = expand_grid(
            DCOp(circuit=chain),
            {"circuit.num_switches": (1, 5, 11, 21), "gmin": (1e-9, 1e-12)},
        )

    Returns a tuple of specs ready for :meth:`Session.run_many`.
    """
    # Materialize every axis up front: a one-shot iterable (generator) must
    # not be exhausted by validation and then silently yield no variants.
    axes = sorted((name, tuple(values)) for name, values in grid.items())
    field_names = {f.name for f in fields(spec)}
    for name, values in axes:
        if not values:
            raise ValueError(f"grid axis {name!r} has no values")
        if not name.startswith("circuit.") and name not in field_names:
            raise ValueError(
                f"{type(spec).__qualname__} has no field {name!r} "
                "(circuit parameters are addressed as 'circuit.<param>')"
            )
    variants = [spec]
    for name, values in axes:
        expanded = []
        for variant in variants:
            for value in values:
                if name.startswith("circuit."):
                    param = name[len("circuit."):]
                    circuit = variant.circuit_spec()
                    params = dict(circuit.params)
                    params[param] = value
                    new_circuit = replace(circuit, params=tuple(sorted(params.items())))
                    # Wrapper specs (Corners, MonteCarlo(base=...)) carry
                    # the circuit on their base analysis, not on themselves.
                    base = getattr(variant, "base", None)
                    if base is not None:
                        expanded.append(
                            replace(variant, base=replace(base, circuit=new_circuit))
                        )
                    else:
                        expanded.append(replace(variant, circuit=new_circuit))
                else:
                    expanded.append(replace(variant, **{name: value}))
        variants = expanded
    return tuple(variants)
