"""Span tracing installed from outside the library, plus the backend probe.

:func:`install` replaces public functions of the ``repro`` modules with
thin wrappers, at class level (methods) or at every module attribute that
holds the original function (functions imported by name elsewhere).  Each
call of a wrapped function becomes one span: id, parent id, name, start and
end (``perf_counter_ns``) and an optional tag the wrapper derives from the
call (a store hit, a route, the counts of a computed result).  Spans stay
in memory per process; :meth:`Tracer.dump` writes them out at the end and
:func:`layer_metrics` turns them into the per-layer numbers.

Nothing here is imported by the end-to-end runs except
:func:`install_backend_probe`, which records which concrete linear-solver
backend ``solver="auto"`` selects and records no spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "session.build_s": "s",
    "engine.assemble_s": "s",
    "engine.assemble_calls": "count",
    "engine.newton_iterations": "count",
    "engine.newton_iter_us": "us",
    "engine.loop_s": "s",
    "solvers.solve_s": "s",
    "solvers.solve_calls": "count",
    "solvers.factorizations": "count",
    "solvers.factorization_reuses": "count",
    "solvers.reuse_ratio": "ratio",
    "montecarlo.sample_s": "s",
    "montecarlo.lockstep_frac": "ratio",
    "waveform_metrics.s": "s",
    "hashing.spec_hash_us": "us",
    "codec.decode_us": "us",
    "stores.get_ms": "ms",
    "stores.put_ms": "ms",
    "stores.hit_frac": "ratio",
    "results.encode_ms": "ms",
    "results.decode_ms": "ms",
    "results.payload_kb": "kB",
    "service.handle_ms.post_studies": "ms",
    "service.handle_ms.get_study": "ms",
    "service.handle_ms.get_result": "ms",
    "service.http_ms": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.compute_ms": "ms",
    "loadgen.lag_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        self.spans: List[Tuple[int, int, str, int, int, Any]] = []
        self.window: Tuple[int, Optional[int]] = (0, None)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        func: Callable,
        tag: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """``func`` recording one span per call; ``tag(args, result)`` labels it."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, tag(args, result) if tag else None)
                )

        return traced

    def open_window(self) -> None:
        """Spans starting from now on count toward the timed window."""
        self.window = (time.perf_counter_ns(), None)

    def close_window(self) -> None:
        self.window = (self.window[0], time.perf_counter_ns())

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------- #
# installation
# ---------------------------------------------------------------------- #


def _patch_method(tracer: Tracer, cls: type, method: str, name: str, tag=None) -> None:
    original = cls.__dict__.get(method)
    if original is None:
        return
    setattr(cls, method, tracer.wrap(name, original, tag))


def _patch_function(tracer: Tracer, module, attribute: str, name: str) -> None:
    """Wrap a module function everywhere ``repro`` imported it by name."""
    import sys

    original = getattr(module, attribute)
    traced = tracer.wrap(name, original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, traced)


def _route(args: tuple, _result: Any) -> str:
    method, target = args[1], args[2]
    parts = [part for part in target.split("?")[0].split("/") if part]
    if method == "POST" and parts == ["studies"]:
        return "post_studies"
    if method == "GET" and len(parts) == 2 and parts[0] == "studies":
        return "get_study"
    if method == "GET" and len(parts) == 3 and parts[2] == "result":
        return "get_result"
    return "other"


def _computed_counts(_args: tuple, result: Any) -> Tuple[int, int, int, int, int]:
    strategies = result.convergence.get("strategies") or ()
    return (
        int(result.newton_iterations),
        int(result.factorizations),
        int(result.factorization_reuses),
        sum(1 for strategy in strategies if strategy == "lockstep"),
        len(strategies),
    )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each ``repro`` layer (see module doc)."""
    import repro.analysis.waveform_metrics as waveform_metrics
    import repro.api.codec as codec
    import repro.api.hashing as hashing
    import repro.api.results as results
    import repro.api.session as session
    import repro.api.stores as stores
    import repro.service.app as app
    import repro.service.jobs as jobs
    import repro.spice.engine as engine
    import repro.spice.montecarlo as montecarlo
    import repro.spice.solvers as solvers

    _patch_method(tracer, session.Session, "build_circuit", "session.build")
    _patch_method(tracer, session.Session, "run", "session.run")
    _patch_method(tracer, session.Session, "compute", "session.compute", _computed_counts)

    for method in ("assemble", "assemble_sparse", "assemble_batched", "assemble_sparse_batched"):
        _patch_method(tracer, engine.CompiledCircuit, method, "engine.assemble")
    for method in (
        "solve_dc",
        "solve_dc_batched",
        "dc_sweep",
        "solve_transient",
        "solve_transient_batched",
    ):
        _patch_method(tracer, engine.AnalysisEngine, method, "engine.solve")

    backends = [
        solvers.LinearSolver,
        solvers.DenseSolver,
        solvers.BatchedDenseSolver,
        solvers.SparseSolver,
        solvers.BatchedSparseSolver,
        solvers.AutoSolver,
    ]
    for cls in backends:
        for method in ("solve", "solve_batched", "solve_pattern", "solve_pattern_batched"):
            _patch_method(tracer, cls, method, "solvers.solve")
        for method in ("factorize", "factorize_pattern", "factorize_pattern_batched"):
            _patch_method(tracer, cls, method, "solvers.factorize")

    _patch_method(
        tracer, montecarlo.MonteCarloEngine, "sample_stacked_overlays", "montecarlo.sample"
    )
    _patch_function(tracer, waveform_metrics, "edge_and_level_metrics", "waveform_metrics")
    _patch_function(tracer, hashing, "spec_hash", "hashing.spec_hash")
    _patch_function(tracer, codec, "spec_from_dict", "codec.decode")

    hit = lambda _args, result: result is not None  # noqa: E731
    for cls in (
        stores.MemoryStore,
        stores.JSONDirectoryStore,
        stores.SQLiteStore,
        stores.TieredStore,
        stores.ResilientStore,
    ):
        _patch_method(tracer, cls, "get", "stores.get", hit)
        _patch_method(tracer, cls, "put", "stores.put")

    _patch_method(tracer, results.Result, "to_json", "results.encode", lambda *_: "json")
    _patch_method(
        tracer, results.Result, "to_jsonable", "results.encode", lambda *_: "jsonable"
    )
    # from_json/from_jsonable are classmethods: wrap the underlying function.
    for method in ("from_json", "from_jsonable"):
        original = results.Result.__dict__[method]
        setattr(
            results.Result,
            method,
            classmethod(tracer.wrap("results.decode", original.__func__)),
        )

    _patch_method(tracer, app.StudyService, "handle_request", "service.handle", _route)
    # The HTTP handler serializes the payload with ``json.dumps`` outside
    # handle_request and then writes it to the socket.  Only the dump is a
    # result encode (tagged True when the payload is a Result); the write
    # stays in service.http_ms.
    app.json = _JSONView(
        tracer.wrap("results.dump", json.dumps, lambda args, _: "arrays" in args[0])
    )
    _patch_method(tracer, jobs.JobManager, "submit", "jobs.submit")


class _JSONView:
    """The ``json`` module as one ``repro`` module sees it, with ``dumps``
    replaced; the real module is left alone for every other caller."""

    def __init__(self, dumps: Callable) -> None:
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def install_backend_probe() -> Dict[str, int]:
    """Count the concrete backends ``AutoSolver.select`` returns, by name.

    This is the one hook every run installs: it records which solver the
    ``"auto"`` policy actually picked, so a run can fail on a mismatch.
    """
    from repro.spice.solvers import AutoSolver

    selected: Dict[str, int] = {}
    original = AutoSolver.select

    def select(self, compiled, trials=None):
        backend = original(self, compiled, trials)
        selected[backend.name] = selected.get(backend.name, 0) + 1
        return backend

    AutoSolver.select = select
    return selected


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #


def _self_times(spans) -> Dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns)."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[4] - span[3]
    return own


def layer_metrics(tracer: Tracer, operations: int) -> Dict[str, float]:
    """Per-layer numbers from the recorded spans (see PER_LAYER_UNITS).

    ``*_s`` totals and ``*_calls``/count metrics are per timed operation;
    ``*_ms``/``*_us`` are per-call means (``results.encode_ms`` per encoded
    result); ratios are over the whole window.
    ``session.build_s`` is per build over the whole process, set-up
    included, because circuits are built during set-up.  Layers a
    workload never reaches report 0.
    """
    start, end = tracer.window
    end = end if end is not None else time.perf_counter_ns()
    all_spans = list(tracer.spans)
    names = {span[0]: span[2] for span in all_spans}
    self_ns = _self_times(all_spans)
    window = [span for span in all_spans if span[3] >= start and span[4] <= end]
    per_op = 1.0 / max(operations, 1)

    def outermost(name: str):
        return [span for span in window if span[2] == name and names.get(span[1]) != name]

    def self_total_s(*layer_names: str) -> float:
        return sum(self_ns[s[0]] for s in window if s[2] in layer_names) / 1e9

    def mean_ms(spans) -> float:
        return statistics.fmean((s[4] - s[3]) / 1e6 for s in spans) if spans else 0.0

    builds = [span for span in all_spans if span[2] == "session.build"]
    computes = [span[5] for span in window if span[2] == "session.compute"]
    newton = sum(c[0] for c in computes)
    factorizations = sum(c[1] for c in computes)
    reuses = sum(c[2] for c in computes)
    lockstep = sum(c[3] for c in computes)
    mc_trials = sum(c[4] for c in computes)
    engine_ns = sum(s[4] - s[3] for s in outermost("engine.solve"))
    gets = outermost("stores.get")
    solver_spans = [
        s for s in window
        if s[2].startswith("solvers.") and not names.get(s[1], "").startswith("solvers.")
    ]
    # One result encode is a Result.to_json call (store writes), or a
    # Result.to_jsonable inside a request plus the handler's dump of it.
    encodes = outermost("results.encode")
    dumps = [s for s in window if s[2] == "results.dump" and s[5]]
    encoded = sum(1 for s in encodes if s[5] == "json") + len(dumps)
    encode_ms = (
        sum(s[4] - s[3] for s in encodes + dumps) / 1e6 / encoded if encoded else 0.0
    )
    metrics = {
        "session.build_s": (
            sum(self_ns[s[0]] for s in builds) / 1e9 / len(builds) if builds else 0.0
        ),
        "engine.assemble_s": self_total_s("engine.assemble") * per_op,
        "engine.assemble_calls": len(outermost("engine.assemble")) * per_op,
        "engine.newton_iterations": newton * per_op,
        "engine.newton_iter_us": engine_ns / 1e3 / newton if newton else 0.0,
        "engine.loop_s": self_total_s("engine.solve") * per_op,
        "solvers.solve_s": self_total_s("solvers.solve", "solvers.factorize") * per_op,
        "solvers.solve_calls": len(solver_spans) * per_op,
        "solvers.factorizations": factorizations * per_op,
        "solvers.factorization_reuses": reuses * per_op,
        "solvers.reuse_ratio": (
            reuses / (factorizations + reuses) if factorizations + reuses else 0.0
        ),
        "montecarlo.sample_s": self_total_s("montecarlo.sample") * per_op,
        "montecarlo.lockstep_frac": lockstep / mc_trials if mc_trials else 0.0,
        "waveform_metrics.s": self_total_s("waveform_metrics") * per_op,
        "hashing.spec_hash_us": mean_ms(outermost("hashing.spec_hash")) * 1e3,
        "codec.decode_us": mean_ms(outermost("codec.decode")) * 1e3,
        "stores.get_ms": mean_ms(gets),
        "stores.put_ms": mean_ms(outermost("stores.put")),
        "stores.hit_frac": (
            sum(1 for s in gets if s[5]) / len(gets) if gets else 0.0
        ),
        "results.encode_ms": encode_ms,
        "results.decode_ms": mean_ms(outermost("results.decode")),
    }
    for route in ("post_studies", "get_study", "get_result"):
        metrics[f"service.handle_ms.{route}"] = mean_ms(
            [s for s in outermost("service.handle") if s[5] == route]
        )
    return metrics


def handle_totals(tracer: Tracer) -> Tuple[int, float]:
    """(count, total ms) of the windowed ``service.handle`` spans."""
    start, end = tracer.window
    end = end if end is not None else time.perf_counter_ns()
    spans = [
        s for s in tracer.spans
        if s[2] == "service.handle" and s[3] >= start and s[4] <= end
    ]
    return len(spans), sum(s[4] - s[3] for s in spans) / 1e6
