"""The Session façade: one declarative entry point over every analysis.

A :class:`Session` takes :mod:`repro.api.specs` specs and returns
:mod:`repro.api.results` records, owning everything in between:

* **circuit reuse** — each distinct :class:`~repro.api.specs.CircuitSpec`
  is built (and its engine compiled) exactly once per session, however
  many analysis specs reference it;
* **dispatch** — every spec kind routes through the same
  :class:`~repro.spice.engine.AnalysisEngine` /
  :class:`~repro.spice.montecarlo.MonteCarloEngine` methods, with the same
  defaults, so results are bit-identical to calling them directly;
* **caching** — results are stored under the spec's content hash in the
  session's pluggable :class:`~repro.api.stores.Store`
  (:class:`~repro.api.stores.MemoryStore` by default; pass
  ``store="some/dir"`` for memory over ``some/dir/results.db``, a
  :class:`~repro.api.stores.SQLiteStore` instance for a database shared
  elsewhere, or ``store=None`` to disable); re-running an unchanged spec
  performs zero Newton iterations (see :attr:`Session.last_stats`), and
  the per-call ``cache="use"|"refresh"|"off"`` policy controls reads and
  writes without manual eviction;
* **fan-out** — :meth:`Session.run_many` hands cache misses to the
  pluggable :class:`~repro.api.executors.Executor` seam
  (:class:`~repro.api.executors.SerialExecutor`, or the process fan-out
  :class:`~repro.api.distributed.DistributedExecutor`, whose workers
  dedupe through a shared store when there is one), so independent specs
  of *any* analysis kind parallelize the same way Monte-Carlo sweeps
  always did.

Typical use::

    from repro.api import CircuitSpec, DCOp, Session, expand_grid

    chain = CircuitSpec(
        "repro.circuits.series_chain:build_series_chain",
        params={"num_switches": 11},
    )
    session = Session(store="study-cache")
    point = session.run(DCOp(circuit=chain))
    print(point.source_current("v_drive"))

    specs = expand_grid(DCOp(circuit=chain), {"circuit.num_switches": (1, 5, 11, 21)})
    study = session.run_many(specs)          # computed once ...
    study = session.run_many(specs)          # ... instant replay from cache
    assert session.last_stats.newton_iterations == 0
    study = session.run_many(specs, cache="refresh")   # force recomputation
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

import repro
from repro.api.executors import Executor, SerialExecutor
from repro.api.hashing import spec_hash
from repro.api.results import Result, ResultSet, convergence_info_to_dict
from repro.api.specs import (
    AnalysisSpec,
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    MonteCarlo,
    Transient,
    circuit_of,
)
from repro.api.stores import MemoryStore, Store, resolve_store
from repro.spice.elements.sources import VoltageSource
from repro.spice.engine import get_engine
from repro.spice.netlist import Circuit


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=1)
def git_describe() -> str:
    """A ``git describe`` of the source tree, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    text = completed.stdout.strip()
    return text if completed.returncode == 0 and text else "unknown"


@lru_cache(maxsize=1)
def library_versions() -> Dict[str, str]:
    """Versions of the libraries a result's numbers depend on."""
    import platform

    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
    }
    try:
        from importlib.metadata import version

        versions["scipy"] = version("scipy")
    except Exception:
        pass
    return versions


def build_provenance(content_hash: str) -> Dict[str, Any]:
    """The provenance record attached to every computed result."""
    return {
        "spec_hash": content_hash,
        "git": git_describe(),
        "versions": dict(library_versions()),
    }


# ---------------------------------------------------------------------- #
# run statistics
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunStatsSnapshot:
    """A read-only copy of :class:`RunStats` at one point in time.

    This is what code handing stats *out* (the service layer's
    ``GET /studies/{id}``, log lines, job records) should expose: the frozen
    dataclass cannot be used to corrupt the session's live counters, and it
    renders as plain JSON via :meth:`to_dict`.
    """

    computed: int = 0
    cached: int = 0
    newton_iterations: int = 0
    factorizations: int = 0
    factorization_reuses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class RunStats:
    """What one ``run``/``run_many`` call actually did.

    ``newton_iterations`` counts only iterations *performed* during the
    call — results served from the cache contribute zero, which is how the
    test-suite verifies that a cached re-run does no numerical work.
    """

    computed: int = 0
    cached: int = 0
    newton_iterations: int = 0
    factorizations: int = 0
    factorization_reuses: int = 0

    def absorb_computed(self, result: Result) -> None:
        self.computed += 1
        self.newton_iterations += result.newton_iterations
        self.factorizations += result.factorizations
        self.factorization_reuses += result.factorization_reuses

    def absorb_cached(self) -> None:
        self.cached += 1

    def snapshot(self) -> RunStatsSnapshot:
        """An immutable copy of the current counters."""
        return RunStatsSnapshot(**dataclasses.asdict(self))


# ---------------------------------------------------------------------- #
# cache policy
# ---------------------------------------------------------------------- #

#: The per-call cache policies :meth:`Session.run`/:meth:`Session.run_many`
#: accept: read+write / recompute+overwrite / bypass entirely.
CACHE_POLICIES = ("use", "refresh", "off")


def _normalize_cache_policy(cache: Any) -> str:
    """Validate the per-call cache policy."""
    if cache not in CACHE_POLICIES:
        raise ValueError(
            f"unknown cache policy {cache!r}; expected one of {CACHE_POLICIES}"
        )
    return cache


# ---------------------------------------------------------------------- #
# the session
# ---------------------------------------------------------------------- #

_UNSET = object()


class Session:
    """Compile once, run any spec, cache by content (see module docstring).

    Parameters
    ----------
    store:
        Where results live, keyed by spec content hash: a
        :class:`~repro.api.stores.Store` instance (used as-is), a
        ``str`` or :class:`os.PathLike` directory path (memory in front of
        ``<dir>/results.db``, a :class:`~repro.api.stores.SQLiteStore` —
        see :func:`~repro.api.stores.resolve_store`), or ``None`` to
        disable caching.  Omitted entirely, an in-memory
        :class:`~repro.api.stores.MemoryStore` is used.
    executor:
        Default :class:`~repro.api.executors.Executor` for
        :meth:`run_many` (serial when omitted).
    """

    def __init__(self, store: Any = _UNSET, executor: Optional[Executor] = None):
        self.store: Optional[Store] = self._resolve_store(store)
        self.executor: Executor = executor or SerialExecutor()
        self._built: Dict[str, Any] = {}
        self.last_stats = RunStats()
        self.total_stats = RunStats()

    @staticmethod
    def _resolve_store(store: Any) -> Optional[Store]:
        if store is _UNSET:
            return MemoryStore()
        if store is None:
            return None
        return resolve_store(store)

    def last_stats_snapshot(self) -> RunStatsSnapshot:
        """A read-only copy of :attr:`last_stats`.

        Services and other long-lived observers must hand this out instead
        of the live :class:`RunStats` — a caller mutating the returned
        object cannot corrupt the session's counters, and the next
        ``run``/``run_many`` cannot mutate what the caller holds.
        """
        return self.last_stats.snapshot()

    def total_stats_snapshot(self) -> RunStatsSnapshot:
        """A read-only copy of :attr:`total_stats` (lifetime counters)."""
        return self.total_stats.snapshot()

    # ------------------------------------------------------------------ #
    # circuits
    # ------------------------------------------------------------------ #

    def build_circuit(self, circuit_spec: CircuitSpec) -> Any:
        """The factory's product for a circuit spec, built exactly once."""
        key = circuit_spec.content_hash
        built = self._built.get(key)
        if built is None:
            built = circuit_spec.build()
            circuit_of(built)  # validate early: must carry a Circuit
            self._built[key] = built
        return built

    def circuit(self, spec: Union[CircuitSpec, AnalysisSpec]) -> Circuit:
        """The (shared) :class:`Circuit` behind a circuit or analysis spec."""
        if isinstance(spec, AnalysisSpec):
            spec = spec.circuit_spec()
        return circuit_of(self.build_circuit(spec))

    def prepare_circuits(self, specs: Sequence[AnalysisSpec]) -> Dict[str, Any]:
        """Build + compile every distinct circuit of ``specs`` (for executors).

        Returns the ``circuit-spec hash -> built object`` mapping executors
        ship to worker processes; the compiled index arrays ride along in
        the pickle, so workers never recompile.
        """
        prebuilt: Dict[str, Any] = {}
        for spec in specs:
            circuit_spec = spec.circuit_spec()
            key = circuit_spec.content_hash
            if key not in prebuilt:
                built = self.build_circuit(circuit_spec)
                get_engine(circuit_of(built)).compiled.refresh_values()
                prebuilt[key] = built
        return prebuilt

    def adopt_circuits(self, prebuilt: Mapping[str, Any]) -> None:
        """Adopt circuits built elsewhere (used by executor workers)."""
        self._built.update(prebuilt)

    # ------------------------------------------------------------------ #
    # running specs
    # ------------------------------------------------------------------ #

    def run(self, spec: AnalysisSpec, cache: str = "use") -> Result:
        """Run one spec (through the store); returns its :class:`Result`.

        ``cache`` is the per-call policy: ``"use"`` (read and write the
        store — the default), ``"refresh"`` (skip the read, recompute and
        overwrite the stored entry) or ``"off"`` (bypass the store in both
        directions).
        """
        # A single run never fans out, whatever the session's executor.
        return self.run_many([spec], executor=SerialExecutor(), cache=cache)[0]

    def run_many(
        self,
        specs: Sequence[AnalysisSpec],
        executor: Optional[Executor] = None,
        cache: str = "use",
    ) -> ResultSet:
        """Run many specs; store misses fan out through the executor seam.

        Duplicate specs (same content hash) are computed once.  Results come
        back in spec order whatever the executor's scheduling.  ``cache``
        is the same per-call policy :meth:`run` takes — ``"refresh"``
        recomputes every spec and overwrites the stored entries, so a
        forced re-run no longer requires manually evicting hashes.
        """
        self.last_stats = RunStats()
        policy = _normalize_cache_policy(cache)
        executor = executor or self.executor
        hashes = [spec_hash(spec) for spec in specs]

        resolved: Dict[str, Result] = {}
        pending: List[AnalysisSpec] = []
        pending_hashes: List[str] = []
        for spec, content in zip(specs, hashes):
            if content in resolved or content in set(pending_hashes):
                continue
            cached = (
                self.store.get(content)
                if (self.store is not None and policy == "use")
                else None
            )
            if cached is not None:
                resolved[content] = dataclasses.replace(
                    cached.copy(), from_cache=True
                )
                self.last_stats.absorb_cached()
                self.total_stats.absorb_cached()
            else:
                pending.append(spec)
                pending_hashes.append(content)

        if pending:
            computed = executor.run_specs(self, pending)
            for content, result in zip(pending_hashes, computed):
                if (
                    self.store is not None
                    and policy != "off"
                    and not result.meta.get("quarantined")
                ):
                    # The store keeps its own copy so caller-side mutation
                    # of the returned result can never poison later hits.
                    # Quarantine placeholders (a distributed run's
                    # on_error="quarantine") never land in the store — a
                    # cached failure would mask the real result forever.
                    self.store.put(content, result.copy())
                resolved[content] = result
                self.last_stats.absorb_computed(result)
                self.total_stats.absorb_computed(result)

        # Duplicate-hash specs must not alias one mutable Result inside the
        # returned set: hand out independent copies past the first slot.
        ordered: List[Result] = []
        seen: set = set()
        for content in hashes:
            result = resolved[content]
            ordered.append(result.copy() if content in seen else result)
            seen.add(content)
        return ResultSet(results=ordered)

    # ------------------------------------------------------------------ #
    # computation (no cache involvement)
    # ------------------------------------------------------------------ #

    def compute(self, spec: AnalysisSpec) -> Result:
        """Compute a spec unconditionally (no cache lookup or store)."""
        built = self.build_circuit(spec.circuit_spec())
        return self._compute_on_built(spec, built)

    def _compute_on_built(self, spec: AnalysisSpec, built: Any) -> Result:
        if isinstance(spec, DCOp):
            return self._compute_dcop(spec, built)
        if isinstance(spec, DCSweep):
            return self._compute_dcsweep(spec, built)
        if isinstance(spec, Transient):
            return self._compute_transient(spec, built)
        if isinstance(spec, MonteCarlo):
            return self._compute_montecarlo(spec, built)
        if isinstance(spec, Corners):
            return self._compute_corners(spec, built)
        raise TypeError(f"unknown analysis spec {type(spec).__qualname__}")

    @staticmethod
    def _meta(circuit: Circuit) -> Dict[str, Any]:
        return {
            "circuit": circuit.title,
            "node_names": list(circuit.node_names),
            "branch_positions": {
                element.name: int(element.branch_position(circuit))
                for element in circuit.elements
                if isinstance(element, VoltageSource)
            },
        }

    def _compute_dcop(self, spec: DCOp, built: Any) -> Result:
        circuit = circuit_of(built)
        point = get_engine(circuit).solve_dc(
            max_iterations=spec.max_iterations,
            tolerance_v=spec.tolerance_v,
            gmin=spec.gmin,
            damping_v=spec.damping_v,
            time_s=spec.time_s,
            solver=spec.solver,
            newton=spec.newton,
        )
        info = convergence_info_to_dict(point.convergence_info)
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            arrays={"solution": point.solution.copy()},
            scalars={
                "converged": bool(point.converged),
                "iterations": int(point.iterations),
                "max_residual": float(point.max_residual),
                "strategy": point.convergence_info.strategy,
            },
            convergence={
                "newton_iterations": int(point.iterations),
                "factorizations": int(point.convergence_info.factorizations),
                "factorization_reuses": int(
                    point.convergence_info.factorization_reuses
                ),
                "info": info,
            },
            provenance=build_provenance(spec.content_hash),
            meta=self._meta(circuit),
        )

    def _compute_dcsweep(self, spec: DCSweep, built: Any) -> Result:
        circuit = circuit_of(built)
        sweep = get_engine(circuit).dc_sweep(
            spec.source,
            spec.values,
            gmin=spec.gmin,
            max_iterations=spec.max_iterations,
            solver=spec.solver,
            newton=spec.newton,
        )
        iterations = np.array([point.iterations for point in sweep.points], dtype=int)
        converged = np.array([point.converged for point in sweep.points], dtype=bool)
        residuals = np.array([point.max_residual for point in sweep.points], dtype=float)
        per_point = [
            convergence_info_to_dict(point.convergence_info) for point in sweep.points
        ]
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            arrays={
                "values": sweep.values.copy(),
                "solutions": sweep.solutions.copy(),
                "iterations": iterations,
                "converged": converged,
                "max_residuals": residuals,
            },
            scalars={
                "converged": bool(converged.all()),
                "points": len(sweep.points),
                "source": spec.source,
            },
            convergence={
                "newton_iterations": int(iterations.sum()),
                "factorizations": sum(
                    point.convergence_info.factorizations for point in sweep.points
                ),
                "factorization_reuses": sum(
                    point.convergence_info.factorization_reuses
                    for point in sweep.points
                ),
                "per_point": per_point,
            },
            provenance=build_provenance(spec.content_hash),
            meta=self._meta(circuit),
        )

    def _resolve_stop_time(self, spec: Transient, built: Any) -> float:
        if spec.stop_time_s is not None:
            return spec.stop_time_s
        sequence = getattr(built, "input_sequence", None)
        duration = getattr(sequence, "total_duration_s", None)
        if duration is None:
            raise ValueError(
                "Transient.stop_time_s=None needs a bench factory whose product "
                "carries an input_sequence with a total duration"
            )
        return float(duration)

    def _compute_transient(self, spec: Transient, built: Any) -> Result:
        circuit = circuit_of(built)
        transient = get_engine(circuit).solve_transient(
            self._resolve_stop_time(spec, built),
            spec.timestep_s,
            integration=spec.integration,
            max_newton_iterations=spec.max_newton_iterations,
            tolerance_v=spec.tolerance_v,
            gmin=spec.gmin,
            use_initial_conditions=spec.use_initial_conditions,
            adaptive=spec.adaptive,
            lte_tolerance_v=spec.lte_tolerance_v,
            min_timestep_s=spec.min_timestep_s,
            max_timestep_s=spec.max_timestep_s,
            solver=spec.solver,
            newton=spec.newton,
        )
        info = transient.convergence_info
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            arrays={
                "time_s": transient.time_s.copy(),
                "solutions": transient.solutions.copy(),
            },
            scalars={
                "converged": bool(transient.converged),
                "strategy": info.strategy,
                "accepted_steps": int(info.accepted_steps),
                "rejected_steps": int(info.rejected_steps),
            },
            convergence={
                "newton_iterations": int(info.newton_iterations),
                "factorizations": int(info.factorizations),
                "factorization_reuses": int(info.factorization_reuses),
                "info": convergence_info_to_dict(info),
            },
            provenance=build_provenance(spec.content_hash),
            meta=self._meta(circuit),
        )

    def _compute_montecarlo(self, spec: MonteCarlo, built: Any) -> Result:
        from repro.spice.montecarlo import MonteCarloEngine

        circuit = circuit_of(built)
        mc = MonteCarloEngine(circuit, dict(spec.perturbations), seed=spec.seed)
        if spec.base is not None:
            return self._compute_montecarlo_transient(spec, built, mc)
        controls = dict(
            max_iterations=spec.max_iterations,
            tolerance_v=spec.tolerance_v,
            gmin=spec.gmin,
            damping_v=spec.damping_v,
            time_s=spec.time_s,
            newton=spec.newton,
        )
        if spec.mode == "batched":
            batch = mc.run_batched_dc(spec.trials, solver=spec.solver, **controls)
        else:
            batch = mc.run_per_trial_dc(spec.trials, solver=spec.solver, **controls)
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            arrays={
                "solutions": batch.solutions,
                "iterations": np.asarray(batch.iterations, dtype=int),
                "converged": np.asarray(batch.converged, dtype=bool),
                "max_residuals": np.asarray(batch.max_residuals, dtype=float),
            },
            scalars={
                "converged": batch.all_converged,
                "trials": int(spec.trials),
                "seed": int(spec.seed),
                "mode": spec.mode,
            },
            convergence={
                "newton_iterations": int(np.sum(batch.iterations)),
                "factorizations": int(batch.factorizations),
                "factorization_reuses": int(batch.factorization_reuses),
                "strategies": list(batch.strategies),
            },
            provenance=build_provenance(spec.content_hash),
            meta=self._meta(circuit),
        )

    def _compute_montecarlo_transient(self, spec: MonteCarlo, built: Any, mc) -> Result:
        """A ``MonteCarlo(base=Transient(...))`` study: lockstep or per-trial.

        Both modes march every trial on the base spec's fixed-step grid and
        produce bit-identical waveforms; ``"batched"`` advances all trials
        together (one batched LAPACK call per Newton round, waveforms
        evaluated once per step).  The result keeps the shared time axis,
        the per-trial waveform of ``metric_node`` and one column per
        waveform-metric key, so the study round-trips through the JSON
        schema and the cache without the full ``(trials, steps, n)`` stack.
        """
        from repro.api.specs import resolve_factory

        base = spec.base
        circuit = circuit_of(built)
        stop_time_s = self._resolve_stop_time(base, built)
        # The MC spec's solver wins when set to a concrete backend; the
        # default "auto" (None is the same policy) defers to whatever the
        # base transient spec asked for.
        solver = spec.solver
        if solver in (None, "auto") and base.solver not in (None, "auto"):
            solver = base.solver
        # Same deferral for the Newton-reuse knob: the MC spec wins when it
        # asks for something, otherwise the base transient spec's choice
        # applies to every trial.
        newton = spec.newton if spec.newton is not None else base.newton

        controls = dict(
            integration=base.integration,
            max_newton_iterations=base.max_newton_iterations,
            tolerance_v=base.tolerance_v,
            gmin=base.gmin,
            use_initial_conditions=base.use_initial_conditions,
            newton=newton,
        )
        if spec.mode == "batched":
            batch = mc.run_batched_transient(
                spec.trials, stop_time_s, base.timestep_s, solver=solver, **controls
            )
        else:
            batch = mc.run_per_trial_transient(
                spec.trials, stop_time_s, base.timestep_s, solver=solver, **controls
            )
        time_s = batch.time_s.copy()
        converged = batch.converged.copy()
        iterations = batch.newton_iterations.copy()
        residuals = batch.max_residuals.copy()
        strategies = list(batch.strategies)

        arrays: Dict[str, np.ndarray] = {
            "time_s": time_s,
            "converged": converged,
            "iterations": iterations,
            "max_residuals": residuals,
        }
        metric_keys: List[str] = []
        if spec.metric_node:
            outputs = batch.voltage(spec.metric_node)
            arrays["outputs"] = outputs
            if spec.metrics:
                hooks = [resolve_factory(path) for path in spec.metrics]
                records = []
                for trial in range(spec.trials):
                    merged: Dict[str, float] = {}
                    for hook in hooks:
                        merged.update(hook(time_s, outputs[trial]))
                    records.append(merged)
                metric_keys = list(records[0]) if records else []
                for key in metric_keys:
                    arrays[f"metric_{key}"] = np.array(
                        [float(record.get(key, float("nan"))) for record in records]
                    )
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            arrays=arrays,
            scalars={
                "converged": bool(np.all(converged)),
                "trials": int(spec.trials),
                "seed": int(spec.seed),
                "mode": spec.mode,
                "base_kind": base.kind,
                "metric_node": spec.metric_node,
            },
            convergence={
                "newton_iterations": int(np.sum(iterations)),
                "factorizations": int(batch.factorizations),
                "factorization_reuses": int(batch.factorization_reuses),
                "strategies": strategies,
            },
            provenance=build_provenance(spec.content_hash),
            meta={**self._meta(circuit), "metric_keys": metric_keys},
        )

    def _compute_corners(self, spec: Corners, built: Any) -> Result:
        from repro.circuits.corners import applied_corner, standard_corners
        from repro.api.hashing import content_hash

        circuit = circuit_of(built)
        corner_map = standard_corners(spec.beta_spread, spec.vth_shift_v)
        children: Dict[str, Result] = {}
        for name in spec.corners:
            with applied_corner(circuit, corner_map[name]):
                child = self._compute_on_built(spec.base, built)
            # A corner child is NOT the plain base computation — it ran
            # under the corner overlay.  Re-identify it so FF/SS/... (and a
            # nominal run of the same base spec) never share a hash.
            child.spec_hash = content_hash(
                {
                    "corners_child": spec.content_hash,
                    "base": spec.base.content_hash,
                    "corner": name,
                }
            )
            child.provenance["spec_hash"] = child.spec_hash
            child.scalars["corner"] = name
            children[name] = child
        return Result(
            kind=spec.kind,
            spec_hash=spec.content_hash,
            scalars={
                "converged": all(child.converged for child in children.values()),
                "corners": list(spec.corners),
            },
            convergence={"newton_iterations": 0},
            provenance=build_provenance(spec.content_hash),
            meta=self._meta(circuit),
            children=children,
        )


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide shared session (in-memory cache, serial executor).

    The experiment frontends route through this session, so repeated runs
    of the same figure within one process share circuits and results.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
