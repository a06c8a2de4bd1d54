"""The executor seam: how a batch of independent specs is dispatched.

:meth:`Session.run_many <repro.api.session.Session.run_many>` hands the
specs that missed the cache to an executor and gets results back in order.
The seam is deliberately tiny — ``run_specs(session, specs)`` — so new
placements (a GPU queue, a remote service) slot in without touching the
session, the cache or the result schema.

Three executors ship:

* :class:`SerialExecutor` — run in-process on the session's own circuits
  (the default; zero overhead, shares every compiled structure);
* :class:`ProcessExecutor` — fan specs out across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  The parent builds and
  compiles each distinct circuit once and ships the *compiled* state to
  every worker through the pool initializer (the same
  pickled-compiled-circuit machinery the Monte-Carlo pool uses — workers
  skip netlist construction and compilation entirely), so fan-out pays
  per-spec solve time only.  Workers start with the ``spawn`` method, as
  the distributed runner's do: forking a parent whose BLAS threads are
  alive is unsafe.  Specs are deterministic, so results are bit-identical
  to a serial run whatever the worker count;
* :class:`~repro.api.distributed.DistributedExecutor` (re-exported here)
  — a coordinator sharding specs to long-lived worker processes over a
  work queue, deduping through a shared :class:`~repro.api.stores.Store`
  and surviving worker death via requeue.  See :mod:`repro.api.distributed`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from typing import Any, Dict, List, Sequence

from repro.api.results import Result
from repro.api.specs import AnalysisSpec


class Executor:
    """Dispatch protocol: compute one result per spec, preserving order."""

    def run_specs(self, session, specs: Sequence[AnalysisSpec]) -> List[Result]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Compute every spec in-process through the calling session."""

    def run_specs(self, session, specs: Sequence[AnalysisSpec]) -> List[Result]:
        return [session.compute(spec) for spec in specs]


_WORKER_PREBUILT: Dict[str, Any] = {}
_WORKER_SESSION = None


def _worker_init(prebuilt: Dict[str, Any]) -> None:
    global _WORKER_PREBUILT, _WORKER_SESSION
    _WORKER_PREBUILT = prebuilt
    _WORKER_SESSION = None


def _worker_run(spec: AnalysisSpec) -> Result:
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from repro.api.session import Session

        _WORKER_SESSION = Session(store=None)
        _WORKER_SESSION.adopt_circuits(_WORKER_PREBUILT)
    return _WORKER_SESSION.compute(spec)


class ProcessExecutor(Executor):
    """Fan independent specs out across worker processes.

    Parameters
    ----------
    workers:
        Pool width.  With one worker (or one spec) the dispatch degrades to
        the serial path — no pool is spawned.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("at least one worker is required")
        self.workers = workers

    def run_specs(self, session, specs: Sequence[AnalysisSpec]) -> List[Result]:
        if self.workers <= 1 or len(specs) <= 1:
            return SerialExecutor().run_specs(session, specs)
        # Build + compile each distinct circuit once in the parent; the
        # initializer pickles the compiled state to every worker exactly
        # once, however many specs land on it.
        prebuilt = session.prepare_circuits(specs)
        with _PoolExecutor(
            max_workers=min(self.workers, len(specs)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(prebuilt,),
        ) as pool:
            return list(pool.map(_worker_run, specs))


def __getattr__(name: str):
    # Lazy re-export: repro.api.distributed imports this module for the
    # Executor base class, so a top-level import here would be circular.
    if name == "DistributedExecutor":
        from repro.api.distributed import DistributedExecutor

        return DistributedExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
