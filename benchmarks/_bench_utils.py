"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
from typing import Any, Dict

#: Version of the BENCH_*.json layout.  Stamped into every artifact so the
#: trend-diff tooling can detect (and report, rather than mis-parse) a
#: future format change.  Bump when the payload structure changes shape.
BENCH_SCHEMA_VERSION = 1


def report(text: str) -> None:
    """Print an experiment report under the benchmark output (use ``-s`` to see it)."""
    print("\n" + text + "\n")


def write_bench_json(filename: str, payload: Dict[str, Any], merge: bool = False) -> None:
    """Record benchmark figures for the CI perf-trajectory artifact.

    Writes ``payload`` as JSON into the directory named by the
    ``BENCH_JSON_DIR`` environment variable (``BENCH_montecarlo.json``,
    ``BENCH_solvers.json``, ...); a no-op when the variable is unset, so
    local runs stay side-effect free.  Every file is stamped with
    ``schema_version`` (see :data:`BENCH_SCHEMA_VERSION`).

    ``merge=True`` folds ``payload`` into an existing file's top-level keys
    instead of replacing it, so several benchmark cases can contribute to
    one artifact (e.g. the Monte-Carlo trial-cost and batched-transient
    cases both land in ``BENCH_montecarlo.json``) whatever order pytest
    runs them in.  A corrupt existing file is treated as absent.
    """
    directory = os.environ.get("BENCH_JSON_DIR")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    existing: Dict[str, Any] = {}
    if merge and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except (OSError, json.JSONDecodeError):
            existing = {}
    stamped = {**existing, **payload, "schema_version": BENCH_SCHEMA_VERSION}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stamped, handle, indent=2, sort_keys=True)
        handle.write("\n")
