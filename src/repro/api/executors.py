"""The executor seam: how a batch of independent specs is dispatched.

:meth:`Session.run_many <repro.api.session.Session.run_many>` hands the
specs that missed the cache to an executor and gets results back in order.
The seam is deliberately tiny — ``run_specs(session, specs)`` — so new
placements (a GPU queue, a remote service) slot in without touching the
session, the cache or the result schema.

Two executors ship:

* :class:`SerialExecutor` — run in-process on the session's own circuits
  (the default; zero overhead, shares every compiled structure);
* :class:`~repro.api.distributed.DistributedExecutor` (re-exported here)
  — the one process fan-out: a coordinator sharding specs to spawned
  worker processes that start from the parent's compiled circuits, send
  each result home over a pipe, dedupe through a shared
  :class:`~repro.api.stores.Store` when the run has one and survive
  worker death via requeue.  Specs are deterministic, so results are
  bit-identical to a serial run whatever the worker count.  See
  :mod:`repro.api.distributed`.
"""

from __future__ import annotations

from typing import List, Sequence

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


def __getattr__(name: str):
    # Lazy re-export: repro.api.distributed imports this module for the
    # Executor base class, so a top-level import here would be circular.
    if name == "DistributedExecutor":
        from repro.api.distributed import DistributedExecutor

        return DistributedExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
