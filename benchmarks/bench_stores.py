"""Benchmark: warm-vs-cold result-store hit latency per backend.

The store seam's claim is that a cache hit is cheap relative to the solve
it replaces, for every backend a Session can mount: the in-memory LRU
(:class:`~repro.api.stores.MemoryStore`), the durable multi-process SQLite
database (:class:`~repro.api.stores.SQLiteStore`) and the memory-over-disk
:class:`~repro.api.stores.TieredStore` that a directory path mounts.  This
benchmark stores one
realistic result (a 64-trial Monte-Carlo transient payload) in each
backend and measures:

* ``miss_ms`` — a cold lookup of an absent key (the price every
  ``Session.run`` pays before computing);
* ``put_ms`` — writing the result;
* ``hit_ms`` — a warm read of the stored result (deserialization
  included: this is what replaces the solve);
* ``tiered_cold_hit_ms`` — a tiered read served from the disk back
  (first read after a restart) vs the promoted front.

Run with ``pytest benchmarks/bench_stores.py -s``.  The figures land in
``BENCH_store.json`` when ``BENCH_JSON_DIR`` is set (the CI
perf-trajectory artifact, diffed by ``compare_bench.py``); the solve they
amortize is recorded alongside as ``solve_ms`` for scale.
"""

import os
import time

import numpy as np

from _bench_utils import report, write_bench_json

from repro.api import Session
from repro.api.results import Result
from repro.api.stores import MemoryStore, SQLiteStore, TieredStore, resolve_store

#: Trials/steps of the synthetic stored payload (matches a 64-trial
#: Fig. 11-class variability study: waveform + per-trial statistics).
TRIALS = int(os.environ.get("STORE_BENCH_TRIALS", "64"))
STEPS = int(os.environ.get("STORE_BENCH_STEPS", "241"))
ROUNDS = int(os.environ.get("STORE_BENCH_ROUNDS", "30"))


def _payload() -> Result:
    rng = np.random.default_rng(2019)
    return Result(
        kind="montecarlo",
        spec_hash="benchhash",
        arrays={
            "time_s": np.linspace(0.0, 240e-9, STEPS),
            "outputs": rng.normal(0.6, 0.1, size=(TRIALS, STEPS)),
            "iterations": rng.integers(2, 6, size=TRIALS),
            "converged": np.ones(TRIALS, dtype=bool),
            "max_residuals": rng.uniform(1e-12, 1e-8, size=TRIALS),
        },
        scalars={"converged": True, "trials": TRIALS, "seed": 2019},
        convergence={"newton_iterations": 731},
        provenance={"git": "bench", "versions": {"numpy": np.__version__}},
        meta={"node_names": [f"n{i}" for i in range(24)]},
    )


def _best_ms(operation, rounds=ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_store_hit_latency(tmp_path):
    result = _payload()
    backends = {
        "memory": MemoryStore(),
        "sqlite": SQLiteStore(str(tmp_path / "results.db")),
        "tiered": resolve_store(str(tmp_path / "tiered")),
    }
    payload = {"trials": TRIALS, "steps": STEPS, "backends": {}}
    for name, store in backends.items():
        miss_ms = _best_ms(lambda: store.get("absent"))
        put_ms = _best_ms(lambda: store.put("benchhash", result))
        hit_ms = _best_ms(lambda: store.get("benchhash"))
        assert store.get("benchhash") is not None
        payload["backends"][name] = {
            "miss_ms": miss_ms,
            "put_ms": put_ms,
            "hit_ms": hit_ms,
        }
        report(
            f"store[{name}]: hit {hit_ms:.3f} ms, put {put_ms:.3f} ms, "
            f"miss {miss_ms:.3f} ms"
        )

    # A tiered cold hit (front empty, served + promoted from disk) vs the
    # warm front it leaves behind — the restart-then-replay scenario.
    back = SQLiteStore(str(tmp_path / "restart.db"))
    back.put("benchhash", result)
    def cold_read():
        tiered = TieredStore(MemoryStore(), back)
        return tiered.get("benchhash")
    payload["tiered_cold_hit_ms"] = _best_ms(cold_read)
    report(f"tiered cold (disk-served) hit: {payload['tiered_cold_hit_ms']:.3f} ms")

    # Scale bar: the solve a warm hit replaces (small DC op, end to end).
    from repro.api import CircuitSpec, DCOp

    chain = CircuitSpec(
        "repro.circuits.series_chain:build_series_chain",
        params={"num_switches": 5},
    )
    session = Session(store=None)
    session.run(DCOp(circuit=chain))  # compile outside the timer
    payload["solve_ms"] = _best_ms(
        lambda: session.run(DCOp(circuit=chain)), rounds=5
    )
    report(f"the solve a hit replaces (5-switch DC op): {payload['solve_ms']:.3f} ms")

    for name, metrics in payload["backends"].items():
        assert metrics["hit_ms"] < 1e3, f"{name} hit latency off the charts"
    write_bench_json("BENCH_store.json", payload)
