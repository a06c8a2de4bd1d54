"""Benchmark: what the fault-tolerance wrapper costs when nothing is wrong.

:class:`~repro.api.stores.ResilientStore` buys degradation-instead-of-
failure (retries, deadline, circuit breaker) with one lock acquisition
and one closure per store operation.  The policy only pays its way if a
*healthy* backend barely notices it, so this benchmark pins:

* ``overhead_pct`` per backend — a warm ``get`` through the wrapper vs
  the raw backend (reported for all three backends; the pin rides on the
  end-to-end figure below, where a real study spends its time);
* ``session_overhead_pct`` — a warm ``Session.run`` cache hit (spec
  hashing + store read + deserialization) with and without the wrapper,
  asserted to stay under ``RESILIENCE_MAX_OVERHEAD_PCT`` (default 10);
* ``breaker_open_miss_us`` — how fast a degraded ``get`` returns while
  the breaker is open (the price of a miss during an outage, which
  should be near-free: no backend touch, no sleeping).

Run with ``pytest benchmarks/bench_resilience.py -s``.  Figures land in
``BENCH_resilience.json`` when ``BENCH_JSON_DIR`` is set, and
``compare_bench.py`` treats every ``*_overhead_pct`` as lower-is-better.
"""

import os
import time

import numpy as np

from _bench_utils import report, write_bench_json

from repro.api import CircuitSpec, DCOp, ResilientStore, Session
from repro.api.results import Result
from repro.api.stores import MemoryStore, SQLiteStore, resolve_store
from repro.testing import FaultPlan, FaultyStore

TRIALS = int(os.environ.get("STORE_BENCH_TRIALS", "64"))
STEPS = int(os.environ.get("STORE_BENCH_STEPS", "241"))
ROUNDS = int(os.environ.get("STORE_BENCH_ROUNDS", "30"))
MAX_OVERHEAD_PCT = float(os.environ.get("RESILIENCE_MAX_OVERHEAD_PCT", "10"))


def _payload() -> Result:
    rng = np.random.default_rng(2019)
    return Result(
        kind="montecarlo",
        spec_hash="benchhash",
        arrays={
            "time_s": np.linspace(0.0, 240e-9, STEPS),
            "outputs": rng.normal(0.6, 0.1, size=(TRIALS, STEPS)),
            "iterations": rng.integers(2, 6, size=TRIALS),
        },
        scalars={"converged": True, "trials": TRIALS, "seed": 2019},
        convergence={"newton_iterations": 731},
        provenance={"git": "bench", "versions": {"numpy": np.__version__}},
        meta={"node_names": [f"n{i}" for i in range(24)]},
    )


def _best_s(operation, rounds=ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def _overhead_pct(raw_s: float, wrapped_s: float) -> float:
    return (wrapped_s - raw_s) / raw_s * 100.0


def test_resilient_wrapper_overhead(tmp_path):
    result = _payload()

    def backends(root):
        return {
            "memory": MemoryStore(),
            "sqlite": SQLiteStore(str(root / "results.db")),
            "tiered": resolve_store(str(root / "tiered")),
        }

    payload = {"trials": TRIALS, "steps": STEPS, "backends": {}}

    # -- raw vs wrapped warm get, per backend (reported, not pinned) ----- #
    raw_root = tmp_path / "raw"
    wrapped_root = tmp_path / "wrapped"
    raw_root.mkdir(), wrapped_root.mkdir()
    raw_stores = backends(raw_root)
    wrapped_stores = {
        name: ResilientStore(store)
        for name, store in backends(wrapped_root).items()
    }
    for name in raw_stores:
        raw_stores[name].put("benchhash", result)
        wrapped_stores[name].put("benchhash", result)
        raw_s = _best_s(lambda: raw_stores[name].get("benchhash"))
        wrapped_s = _best_s(lambda: wrapped_stores[name].get("benchhash"))
        pct = _overhead_pct(raw_s, wrapped_s)
        payload["backends"][name] = {
            "raw_hit_ms": raw_s * 1e3,
            "resilient_hit_ms": wrapped_s * 1e3,
            "overhead_pct": pct,
        }
        report(
            f"resilient[{name}]: raw {raw_s * 1e3:.3f} ms vs wrapped "
            f"{wrapped_s * 1e3:.3f} ms ({pct:+.1f}%)"
        )

    # -- the pinned figure: an end-to-end warm Session.run hit ----------- #
    chain = CircuitSpec(
        "repro.circuits.series_chain:build_series_chain",
        params={"num_switches": 5},
    )
    spec = DCOp(circuit=chain)
    raw_store = SQLiteStore(str(tmp_path / "session_raw.db"))
    resilient_store = ResilientStore(
        SQLiteStore(str(tmp_path / "session_wrapped.db"))
    )
    raw_session = Session(store=raw_store)
    resilient_session = Session(store=resilient_store)
    raw_session.run(spec)  # warm both caches outside the timer
    resilient_session.run(spec)
    raw_s = _best_s(lambda: raw_session.run(spec))
    wrapped_s = _best_s(lambda: resilient_session.run(spec))
    session_pct = _overhead_pct(raw_s, wrapped_s)
    payload["session_raw_hit_ms"] = raw_s * 1e3
    payload["session_resilient_hit_ms"] = wrapped_s * 1e3
    payload["session_overhead_pct"] = session_pct
    report(
        f"warm Session.run hit: raw {raw_s * 1e3:.3f} ms vs resilient "
        f"{wrapped_s * 1e3:.3f} ms ({session_pct:+.1f}%, "
        f"budget {MAX_OVERHEAD_PCT:g}%)"
    )
    assert session_pct < MAX_OVERHEAD_PCT, (
        f"resilient warm-hit overhead {session_pct:.1f}% exceeds the "
        f"{MAX_OVERHEAD_PCT:g}% budget"
    )

    # -- how cheap is degradation itself -------------------------------- #
    dead = ResilientStore(
        FaultyStore(MemoryStore(), FaultPlan(fail_from=1)),
        retries=0,
        breaker_threshold=1,
        _sleep=lambda _s: None,
    )
    dead.get("benchhash")  # trip the breaker
    assert dead.breaker_state == "open"
    open_s = _best_s(lambda: dead.get("benchhash"))
    payload["breaker_open_miss_us"] = open_s * 1e6
    report(f"degraded get while breaker open: {open_s * 1e6:.2f} us")

    write_bench_json("BENCH_resilience.json", payload)
