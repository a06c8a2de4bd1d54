"""Tests of the fault-tolerance seam: chaos injection + resilient stores.

Two halves:

* :mod:`repro.testing.chaos` — the deterministic fault harness itself
  (plans are pure functions of their indices, torn writes leave real
  half-written bytes, the op log records exactly what happened);
* :class:`repro.api.stores.ResilientStore` — retries heal intermittent
  faults, persistent faults open the circuit breaker (get degrades to a
  miss, put is dropped and counted), half-open probes recover, deadlines
  abandon hung backends, and — the acceptance pin — a store that dies
  mid-study degrades the cache while the study itself completes
  bitwise-identical to an uncached run, for every backend.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.api import CircuitSpec, DCOp, ResilientStore, Session
from repro.api.stores import MemoryStore, SQLiteStore
from repro.service import JobManager, StudyService
from repro.service.jobs import JobNotDone
from repro.testing import FaultPlan, FaultyStore, InjectedFault
from test_stores import BACKENDS, build_store, make_result

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"


def chain_specs(count=5):
    return [
        DCOp(circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": n}))
        for n in range(2, 2 + count)
    ]


def assert_bitwise_equal(study_a, study_b):
    assert study_a.to_json() == study_b.to_json()


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _no_sleep(_seconds):
    return None


def resilient(inner, **overrides):
    """A test wrapper: no real sleeping, fast breaker, overridable."""
    settings = dict(
        retries=2, backoff_s=0.01, jitter=0.0, breaker_threshold=3,
        breaker_reset_s=5.0, _sleep=_no_sleep,
    )
    settings.update(overrides)
    return ResilientStore(inner, **settings)


# ---------------------------------------------------------------------- #
# the chaos harness itself
# ---------------------------------------------------------------------- #


class TestFaultPlan:
    def test_one_shot_and_window_semantics(self):
        plan = FaultPlan(fail_on=(2,), fail_from=5, fail_until=6)
        decisions = [plan.should_fail(index) for index in range(1, 9)]
        assert decisions == [False, True, False, False, True, True, False, False]

    def test_open_ended_window_never_recovers(self):
        plan = FaultPlan(fail_from=3)
        assert [plan.should_fail(i) for i in (1, 2, 3, 100, 10_000)] == [
            False, False, True, True, True,
        ]

    def test_fail_rate_is_a_pure_function_of_seed_and_index(self):
        plan = FaultPlan(fail_rate=0.5, seed=7)
        first = [plan.should_fail(i) for i in range(1, 200)]
        # Same plan, any call order, any repetition: identical pattern.
        second = [plan.should_fail(i) for i in reversed(range(1, 200))]
        assert first == list(reversed(second))
        assert any(first) and not all(first)
        other = FaultPlan(fail_rate=0.5, seed=8)
        assert first != [other.should_fail(i) for i in range(1, 200)]

    def test_validation(self):
        with pytest.raises(ValueError, match="fail_rate"):
            FaultPlan(fail_rate=1.5)
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(fail_from=0)
        with pytest.raises(ValueError, match="latency_s"):
            FaultPlan(latency_s=-1)


class TestFaultyStore:
    def test_counts_only_covered_operations(self):
        store = FaultyStore(MemoryStore(), FaultPlan(ops=("put",), fail_on=(2,)))
        store.put("a", make_result(tag="a"))          # put #1: ok
        for _ in range(5):
            assert store.get("a") is not None          # gets are not covered
        with pytest.raises(InjectedFault, match=r"put #2"):
            store.put("b", make_result(tag="b"))
        store.put("c", make_result(tag="c"))           # put #3: recovered
        assert store.operations == 3
        assert store.log == [("put", 1, "ok"), ("put", 2, "fault"), ("put", 3, "ok")]

    def test_faults_are_plain_storage_errors(self):
        store = FaultyStore(MemoryStore(), FaultPlan(fail_on=(1,)))
        with pytest.raises(OSError):
            store.get("anything")

    def test_torn_write_sqlite_drops_row(self, tmp_path):
        inner = build_store("sqlite", tmp_path)
        store = FaultyStore(
            inner, FaultPlan(ops=("put",), torn_write_on=(1,))
        )
        store.put("k", make_result(tag="torn"))        # "succeeds"
        assert store.log == [("put", 1, "torn")]
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert inner.get("k") is None              # half a row on disk
        assert len(inner) == 0                         # dropped, not kept

    def test_torn_write_tiered_does_not_hide_behind_front(self, tmp_path):
        inner = build_store("tiered", tmp_path)
        store = FaultyStore(
            inner, FaultPlan(ops=("put",), torn_write_on=(1,))
        )
        store.put("k", make_result(tag="torn"))
        # The clean front copy was dropped with the back torn: the read
        # sees the disk truth, not a comforting cache.
        with pytest.warns(RuntimeWarning):
            assert inner.get("k") is None

    def test_torn_write_memory_simply_loses_the_write(self):
        inner = MemoryStore()
        store = FaultyStore(
            inner, FaultPlan(ops=("put",), torn_write_on=(1,))
        )
        store.put("k", make_result(tag="gone"))
        assert inner.get("k") is None


# ---------------------------------------------------------------------- #
# ResilientStore behaviour
# ---------------------------------------------------------------------- #


class TestResilientStore:
    def test_transparent_when_healthy(self):
        inner = MemoryStore()
        store = resilient(inner)
        original = make_result(tag="round-trip")
        store.put("k", original)
        assert store.get("k").to_json() == original.to_json()
        metrics = store.metrics()
        assert metrics["state"] == "closed"
        assert metrics["failures"] == 0 and metrics["degraded"] == 0

    def test_intermittent_fault_heals_by_retry(self):
        sleeps = []
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_on=(1,)))
        store = resilient(faulty, backoff_s=0.05, _sleep=sleeps.append)
        assert store.get("missing") is None            # healed on attempt 2
        assert sleeps == [0.05]
        metrics = store.metrics()
        assert metrics["failures"] == 1 and metrics["retries"] == 1
        assert metrics["state"] == "closed" and metrics["degraded"] == 0

    def test_backoff_grows_exponentially_with_jitter_bound(self):
        sleeps = []
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_on=(1, 2)))
        store = resilient(
            faulty, retries=2, backoff_s=0.1, jitter=0.5, _sleep=sleeps.append
        )
        store.get("missing")
        assert len(sleeps) == 2
        assert 0.1 <= sleeps[0] <= 0.1 * 1.5
        assert 0.2 <= sleeps[1] <= 0.2 * 1.5

    def test_retries_exhausted_degrades_to_miss(self):
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_on=(1, 2, 3)))
        store = resilient(faulty, retries=2, breaker_threshold=10)
        assert store.get("k") is None
        metrics = store.metrics()
        assert metrics["failures"] == 3
        assert metrics["degraded_gets"] == 1
        assert metrics["state"] == "closed"            # threshold not reached

    def test_persistent_failure_opens_breaker_and_stops_touching_backend(self):
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_from=1))
        store = resilient(faulty, retries=0, breaker_threshold=2)
        assert store.get("a") is None                  # failure 1
        assert store.get("b") is None                  # failure 2 -> open
        assert store.breaker_state == "open"
        touched = faulty.operations
        store.put("c", make_result(tag="c"))           # dropped, not attempted
        assert store.get("d") is None                  # short-circuited
        assert faulty.operations == touched            # backend left alone
        metrics = store.metrics()
        assert metrics["breaker_opens"] == 1
        assert metrics["short_circuited"] == 2
        assert metrics["dropped_puts"] == 1
        assert metrics["degraded"] >= 3

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_from=1))
        store = resilient(
            faulty, retries=0, breaker_threshold=2, breaker_reset_s=10.0,
            _clock=clock,
        )
        store.get("a"), store.get("b")                 # open
        clock.now = 11.0
        assert store.breaker_state == "half-open"
        assert store.get("c") is None                  # the probe fails
        assert store.breaker_state == "open"
        assert store.metrics()["probes"] == 1

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        inner = MemoryStore()
        inner.put("k", make_result(tag="back"))
        faulty = FaultyStore(inner, FaultPlan(fail_from=1, fail_until=2))
        store = resilient(
            faulty, retries=0, breaker_threshold=2, breaker_reset_s=10.0,
            _clock=clock,
        )
        store.get("k"), store.get("k")                 # ops 1, 2 fail -> open
        clock.now = 11.0
        recovered = store.get("k")                     # probe (op 3) succeeds
        assert recovered is not None
        assert recovered.to_json() == inner.get("k").to_json()
        assert store.breaker_state == "closed"

    def test_deadline_abandons_hung_backend(self):
        faulty = FaultyStore(MemoryStore(), FaultPlan(latency_s=0.5))
        store = resilient(faulty, retries=0, deadline_s=0.05)
        assert store.get("k") is None
        metrics = store.metrics()
        assert metrics["timeouts"] == 1
        assert metrics["degraded_gets"] == 1
        # The abandoned call sleeps out its latency in its own thread; wait
        # for it, so no later test starts with a second thread alive.
        abandoned = [
            thread for thread in threading.enumerate()
            if thread.name == "repro-store-bounded-call"
        ]
        for thread in abandoned:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_every_operation_has_a_safe_fallback(self):
        faulty = FaultyStore(
            MemoryStore(),
            FaultPlan(
                ops=("get", "put", "delete", "keys", "len", "count"),
                fail_from=1,
            ),
        )
        store = resilient(faulty, retries=0, breaker_threshold=100)
        assert store.get("k") is None
        assert store.put("k", make_result()) is None
        assert store.delete("k") is False
        assert list(store.keys()) == []
        assert len(store) == 0
        assert store.count() == 0
        assert store.metrics()["degraded"] == 6

    def test_pickle_crosses_with_fresh_breaker_and_counters(self, tmp_path):
        faulty = FaultyStore(
            SQLiteStore(str(tmp_path / "r.db")), FaultPlan(fail_from=1)
        )
        store = resilient(faulty, retries=0, breaker_threshold=1, deadline_s=2.0)
        store.get("k")                                  # open the breaker
        assert store.breaker_state == "open"
        clone = pickle.loads(pickle.dumps(store))
        assert clone.breaker_state == "closed"
        assert clone.metrics()["failures"] == 0
        assert clone.retries == 0 and clone.deadline_s == 2.0
        assert clone.breaker_threshold == 1

    def test_worker_view_propagates_the_policy(self, tmp_path):
        assert resilient(MemoryStore()).worker_view() is None
        sqlite_backed = resilient(SQLiteStore(str(tmp_path / "r.db")))
        assert sqlite_backed.worker_view() is sqlite_backed
        tiered = resilient(build_store("tiered", tmp_path), breaker_threshold=7)
        view = tiered.worker_view()
        assert isinstance(view, ResilientStore) and view is not tiered
        assert view.breaker_threshold == 7

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ResilientStore(MemoryStore(), retries=-1)
        with pytest.raises(ValueError, match="deadline_s"):
            ResilientStore(MemoryStore(), deadline_s=0)
        with pytest.raises(ValueError, match="breaker_threshold"):
            ResilientStore(MemoryStore(), breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_reset_s"):
            ResilientStore(MemoryStore(), breaker_reset_s=0)

    def test_concurrent_hammering_never_raises(self):
        faulty = FaultyStore(MemoryStore(), FaultPlan(fail_rate=0.5, seed=3))
        store = resilient(faulty, retries=1, breaker_threshold=4)
        errors = []

        def hammer(tag):
            try:
                for index in range(25):
                    store.put(f"{tag}-{index}", make_result(tag=tag))
                    store.get(f"{tag}-{index}")
            except Exception as error:  # noqa: BLE001 — the assertion
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


# ---------------------------------------------------------------------- #
# the chaos contract: every backend, behind the wrapper, under fire
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
class TestChaosContract:
    def test_intermittent_faults_heal_and_study_matches_uncached(
        self, backend, tmp_path
    ):
        raw = build_store(backend, tmp_path)
        faulty = FaultyStore(raw, FaultPlan(fail_on=(1, 3)))
        store = resilient(faulty)
        specs = chain_specs(5)
        study = Session(store=store).run_many(specs)
        reference = Session(store=None).run_many(specs)
        assert_bitwise_equal(study, reference)
        metrics = store.metrics()
        assert metrics["failures"] == 2 and metrics["retries"] == 2
        assert metrics["state"] == "closed" and metrics["degraded"] == 0
        # every write healed: the raw backend holds the whole study
        assert raw.count() == len(specs)

    def test_mid_study_outage_degrades_but_study_completes(
        self, backend, tmp_path
    ):
        raw = build_store(backend, tmp_path)
        # The backend dies at covered op 4 and never comes back.
        faulty = FaultyStore(raw, FaultPlan(fail_from=4))
        store = resilient(faulty, retries=0, breaker_threshold=2)
        specs = chain_specs(6)
        study = Session(store=store).run_many(specs)
        reference = Session(store=None).run_many(specs)
        assert_bitwise_equal(study, reference)
        metrics = store.metrics()
        assert metrics["state"] == "open"
        assert metrics["breaker_opens"] == 1
        assert metrics["degraded"] > 0

    def test_cold_dead_store_is_equivalent_to_no_store(self, backend, tmp_path):
        raw = build_store(backend, tmp_path)
        faulty = FaultyStore(raw, FaultPlan(fail_from=1))
        store = resilient(faulty, retries=0, breaker_threshold=1)
        specs = chain_specs(4)
        study = Session(store=store).run_many(specs)
        reference = Session(store=None).run_many(specs)
        assert_bitwise_equal(study, reference)
        assert raw.count() == 0


# ---------------------------------------------------------------------- #
# the service acceptance pin: store outage mid-study
# ---------------------------------------------------------------------- #


class TestServiceDegradation:
    def test_store_outage_mid_study_degrades_never_fails(self, tmp_path):
        raw = build_store("sqlite", tmp_path)
        # Covered ops: each submission gets once, each computed job gets
        # and puts once.  Job 1 settles alone (ops 1-3 clean), then the
        # backend dies and every later operation fails.
        faulty = FaultyStore(raw, FaultPlan(fail_from=4))
        store = resilient(faulty, retries=0, breaker_threshold=2)
        manager = JobManager(store=store, workers=1)
        service = StudyService(manager)
        try:
            specs = chain_specs(5)
            import json as _json

            from repro.api import spec_hash, spec_to_dict

            def post(spec):
                status, payload = service.handle(
                    "POST",
                    "/studies",
                    _json.dumps(spec_to_dict(spec)).encode("utf-8"),
                )
                assert status in (200, 202)

            post(specs[0])
            assert manager.join(timeout_s=120)  # job 1 stored cleanly
            for spec in specs[1:]:
                post(spec)
            assert manager.join(timeout_s=120)
            counts = manager.metrics()
            assert counts["failed"] == 0
            assert counts["computed"] == len(specs)
            status, metrics = service.handle("GET", "/metrics")
            assert status == 200
            assert metrics["store_degraded"] > 0
            assert metrics["store"]["state"] == "open"
            # Every job is done.  The result written before the outage
            # sits bit-identical in the raw backend (the durable truth);
            # while the breaker is open, reads through the wrapper
            # degrade to misses and the manager names resubmission as
            # the cure — degraded service, never a wrong answer.
            reference = Session(store=None)
            for spec in specs:
                assert manager.status(spec_hash(spec)).state == "done"
            survivor = specs[0]
            assert (
                raw.get(spec_hash(survivor)).to_json()
                == reference.run(survivor).to_json()
            )
            assert raw.count() == 1  # everything after op 3 was dropped
            with pytest.raises(JobNotDone, match="resubmit"):
                manager.result(spec_hash(specs[1]))
        finally:
            manager.close(drain=False, timeout_s=10)
