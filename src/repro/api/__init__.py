"""repro.api — one declarative entry point over every analysis.

The engine layers (PRs 1-3) left the package with many parallel entry
points — ``dcop``/``dcsweep``/``transient``/``sweep_many``/
``MonteCarloEngine``/``run_corners`` — each wired by hand at every call
site.  This package replaces that wiring with a *declare, then run* model:

1. **Specs** (:mod:`repro.api.specs`) — frozen dataclasses describing what
   to compute: a :class:`CircuitSpec` (factory + parameters) plus an
   analysis variant (:class:`DCOp`, :class:`DCSweep`, :class:`Transient`,
   :class:`MonteCarlo`, :class:`Corners`) capturing every knob, solver
   choice and seed.
2. **Session** (:mod:`repro.api.session`) — builds and compiles each
   circuit exactly once, dispatches any spec (single, list or
   :func:`expand_grid` product) through the analysis engine, and returns
   uniform :class:`Result` records with provenance.
3. **Stores** (:mod:`repro.api.stores`) — results live under the spec's
   content hash (:func:`spec_hash`) in a pluggable :class:`Store`:
   in-memory LRU (:class:`MemoryStore`, the default), a durable
   multi-process SQLite database (:class:`SQLiteStore`) or a
   memory-over-disk :class:`TieredStore` (what a directory path mounts);
   re-running a study recomputes only what changed, and the per-call
   ``cache="use"|"refresh"|"off"`` policy controls reads and writes.
4. **Executors** (:mod:`repro.api.executors`) — the placement seam:
   :class:`SerialExecutor` (default) or :class:`DistributedExecutor`
   (:mod:`repro.api.distributed`), the one process fan-out: spawned
   workers start from pickled compiled circuits, send results home over
   their pipes, dedupe through a shared store when the run has one and
   survive worker death via requeue.

Quickstart::

    from repro.api import CircuitSpec, Session, Transient

    bench = CircuitSpec(
        "repro.experiments.fig11_xor3_transient:build_fig11_bench",
        params={"step_duration_s": 80e-9},
    )
    session = Session(store=".study-cache")
    result = session.run(Transient(circuit=bench, timestep_s=1e-9))
    print(result.voltage("out")[-1], result.provenance["git"])

    session.run(Transient(circuit=bench, timestep_s=1e-9))   # cache hit:
    assert session.last_stats.newton_iterations == 0          # zero Newton work

Code that already holds a :class:`~repro.spice.netlist.Circuit` calls the
engine methods directly (``get_engine(circuit).solve_dc()`` and friends);
see the README migration table.
"""

from repro.api.codec import SpecDecodeError, spec_from_dict, spec_to_dict
from repro.api.executors import Executor, SerialExecutor
from repro.api.hashing import canonical, canonical_json, content_hash, spec_hash
from repro.api.results import Result, ResultSet
from repro.api.session import RunStats, RunStatsSnapshot, Session, default_session
from repro.api.specs import (
    AnalysisSpec,
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    MonteCarlo,
    Transient,
    circuit_of,
    expand_grid,
    resolve_factory,
)
from repro.api.stores import (
    MemoryStore,
    ResilientStore,
    SQLiteStore,
    Store,
    TieredStore,
)

__all__ = [
    "AnalysisSpec",
    "CircuitSpec",
    "Corners",
    "DCOp",
    "DCSweep",
    "MonteCarlo",
    "Transient",
    "circuit_of",
    "expand_grid",
    "resolve_factory",
    "Result",
    "ResultSet",
    "Store",
    "MemoryStore",
    "ResilientStore",
    "SQLiteStore",
    "TieredStore",
    "Executor",
    "SerialExecutor",
    "DistributedExecutor",
    "RunStats",
    "RunStatsSnapshot",
    "Session",
    "default_session",
    "canonical",
    "canonical_json",
    "content_hash",
    "spec_hash",
    "SpecDecodeError",
    "spec_to_dict",
    "spec_from_dict",
]


def __getattr__(name: str):
    # Lazy: the distributed runner pulls in multiprocessing machinery that
    # should not tax plain ``import repro.api``.
    if name == "DistributedExecutor":
        from repro.api.distributed import DistributedExecutor

        return DistributedExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
