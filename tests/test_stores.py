"""Tests of the pluggable result-store seam (:mod:`repro.api.stores`).

Covers the store redesign's acceptance criteria:

* ``put`` -> ``get`` is a bitwise round trip for every backend
  (hypothesis-property-tested, including NaN / infinities / negative
  zero / subnormals);
* two processes writing and reading the same key concurrently never see
  a torn read (atomic writes), and the last writer wins;
* TTL expiry and LRU eviction per backend, eagerly and via ``prune``;
* a corrupt SQLite row is dropped on first detection with a one-time
  warning, and every connection runs ``PRAGMA synchronous=FULL``;
* a directory path mounts memory over ``<dir>/results.db`` and imports
  the ``<key>.json`` files of the removed JSON-file backend once;
* the pickled ``worker_view()`` of that mount, which is what a spawned or
  distributed worker holds, meets the same contract as the store it
  came from;
* provenance-aware invalidation keeps entries the current build would
  reproduce and drops the rest;
* ``get_json`` returns exactly ``get(key).to_json()`` on every backend and
  wrapper, misses the same way, and never hands out a corrupt entry;
* the durable stores parse a payload once per process: a byte-identical
  re-read is served on its SHA-256 digest, while expiry, the LRU touch and
  the corrupt-entry drop still apply and a rewritten entry parses again.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sqlite3
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import stores
from repro.api.results import Result, ResultSet
from repro.api.stores import (
    JSONDirectoryStore,
    MemoryStore,
    ResilientStore,
    SQLiteStore,
    Store,
    TieredStore,
    resolve_store,
)
from repro.testing.chaos import FaultPlan, FaultyStore

BACKENDS = ("memory", "sqlite", "tiered", "worker")


def build_store(backend: str, root) -> Store:
    if backend == "memory":
        return MemoryStore()
    if backend == "sqlite":
        return SQLiteStore(os.path.join(str(root), "results.db"))
    if backend == "tiered":  # what a directory path mounts
        return resolve_store(os.path.join(str(root), "back"))
    if backend == "worker":  # what a spawned worker receives of that mount
        mount = resolve_store(os.path.join(str(root), "worker"))
        return pickle.loads(pickle.dumps(mount.worker_view()))
    raise ValueError(backend)


def make_result(
    kind: str = "dcop",
    tag: str = "a",
    value: float = 1.5,
    git: str = "deadbeef",
) -> Result:
    return Result(
        kind=kind,
        spec_hash=f"hash-{tag}",
        arrays={"data": np.array([value, -0.0, np.nan, np.inf, 5e-324])},
        scalars={"converged": True, "tag": tag},
        convergence={"newton_iterations": 3},
        provenance={"git": git, "versions": {"numpy": np.__version__}},
        meta={"node_names": ["out"]},
    )


# ---------------------------------------------------------------------- #
# the common Store contract
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_put_get_delete_len(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        assert store.get("missing") is None
        store.put("k1", make_result(tag="a"))
        store.put("k2", make_result(tag="b"))
        assert len(store) == 2
        assert "k1" in store and "nope" not in store
        assert store.get("k1").scalars["tag"] == "a"
        assert store.delete("k1") is True
        assert store.delete("k1") is False
        assert store.get("k1") is None and len(store) == 1

    def test_last_writer_wins(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.put("k", make_result(tag="first"))
        store.put("k", make_result(tag="second"))
        assert store.get("k").scalars["tag"] == "second"
        assert len(store) == 1

    def test_keys_iterate_deterministically(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        for tag in ("c", "a", "b"):
            store.put(f"key-{tag}", make_result(tag=tag))
        if backend != "memory":  # persistent backends sort
            assert list(store.keys()) == ["key-a", "key-b", "key-c"]
        assert set(store) == {"key-a", "key-b", "key-c"}

    def test_count_by_kind(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        assert store.count() == 0
        store.put("k1", make_result(kind="dcop", tag="a"))
        store.put("k2", make_result(kind="dcop", tag="b"))
        store.put("k3", make_result(kind="transient", tag="c"))
        assert store.count() == len(store) == 3
        assert store.count(kind="dcop") == 2
        assert store.count(kind="transient") == 1
        assert store.count(kind="montecarlo") == 0

    def test_query_by_kind_and_predicate(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.put("k1", make_result(kind="dcop", tag="a"))
        store.put("k2", make_result(kind="transient", tag="b"))
        store.put("k3", make_result(kind="dcop", tag="c"))
        assert {r.scalars["tag"] for r in store.query(kind="dcop")} == {"a", "c"}
        assert {r.scalars["tag"] for r in store.query()} == {"a", "b", "c"}
        picked = list(
            store.query(kind="dcop", where=lambda r: r.scalars["tag"] == "c")
        )
        assert len(picked) == 1 and picked[0].scalars["tag"] == "c"

    def test_clear(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.put("k1", make_result())
        store.put("k2", make_result())
        store.clear()
        assert len(store) == 0 and store.get("k1") is None

    def test_invalid_keys_are_rejected(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        for bad in ("", "../escape", "a/b", "a b", None):
            with pytest.raises((ValueError, TypeError)):
                store.put(bad, make_result())

    def test_invalidate_by_predicate(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.put("k1", make_result(tag="keep"))
        store.put("k2", make_result(tag="drop"))
        dropped = store.invalidate(
            lambda key, result: result.scalars["tag"] == "drop"
        )
        assert dropped == 1
        assert store.get("k1") is not None and store.get("k2") is None

    def test_invalidate_provenance_against_reference(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.put("match", make_result(tag="m", git="build-A"))
        store.put("stale", make_result(tag="s", git="build-B"))
        missing = make_result(tag="x")
        missing.provenance = {}
        store.put("naked", missing)
        dropped = store.invalidate_provenance(reference={"git": "build-A"})
        assert dropped == 2  # the mismatch and the entry with no record
        assert list(store.keys()) == ["match"]

    def test_invalidate_provenance_defaults_to_current_build(
        self, backend, tmp_path
    ):
        from repro.api.session import git_describe, library_versions

        store = build_store(backend, tmp_path)
        current = make_result(tag="current")
        current.provenance = {
            "git": git_describe(),
            "versions": dict(library_versions()),
        }
        store.put("current", current)
        store.put("stale", make_result(tag="stale", git="someone-else"))
        assert store.invalidate_provenance() == 1
        assert list(store.keys()) == ["current"]


# ---------------------------------------------------------------------- #
# bitwise round trip (hypothesis)
# ---------------------------------------------------------------------- #


_FINITE_OR_NOT = st.floats(allow_nan=True, allow_infinity=True, width=64)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.lists(_FINITE_OR_NOT, min_size=0, max_size=8),
    counts=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=4),
    flag=st.booleans(),
    label=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=1000), max_size=12
    ),
)
def test_put_get_is_bitwise_roundtrip(
    backend, tmp_path, values, counts, flag, label
):
    store = build_store(backend, tmp_path)
    original = Result(
        kind="prop",
        spec_hash="prop-hash",
        arrays={
            "floats": np.array(values, dtype=float),
            "ints": np.array(counts, dtype=np.int64),
            "flags": np.array([flag, not flag]),
        },
        scalars={"converged": flag, "label": label},
        convergence={"newton_iterations": 1},
        provenance={"git": "prop"},
    )
    reference = original.to_json()
    store.put("prop-key", original)
    revived = store.get("prop-key")
    assert revived is not None
    # The serialized form is the bitwise contract: every backend must
    # reproduce it byte for byte.
    assert revived.to_json() == reference
    assert store.get_json("prop-key") == reference
    # And the payload bits round-trip exactly — NaN excepted, whose sign/
    # payload bits Python's json collapses to one canonical NaN (the
    # pre-existing Result schema behaviour, identical across backends).
    before = original.arrays["floats"]
    after = revived.arrays["floats"]
    nan_mask = np.isnan(before)
    assert np.array_equal(nan_mask, np.isnan(after))
    np.testing.assert_array_equal(
        after[~nan_mask].view(np.uint64), before[~nan_mask].view(np.uint64)
    )
    np.testing.assert_array_equal(
        revived.arrays["ints"], original.arrays["ints"]
    )


# ---------------------------------------------------------------------- #
# TTL and LRU
# ---------------------------------------------------------------------- #


class TestEviction:
    def test_memory_lru_eviction_on_put(self):
        store = MemoryStore(max_entries=2)
        store.put("a", make_result(tag="a"))
        store.put("b", make_result(tag="b"))
        assert store.get("a") is not None  # touch: "a" becomes most recent
        store.put("c", make_result(tag="c"))
        assert store.get("b") is None  # LRU evicted
        assert store.get("a") is not None and store.get("c") is not None

    def test_memory_ttl_expiry(self):
        store = MemoryStore(ttl_s=5.0)
        store.put("k", make_result())
        result, _ = store._entries["k"]
        store._entries["k"] = (result, time.time() - 10.0)  # backdate
        assert store.get("k") is None
        assert len(store) == 0

    def test_sqlite_ttl_expiry(self, tmp_path):
        store = SQLiteStore(os.path.join(str(tmp_path), "r.db"), ttl_s=5.0)
        store.put("k", make_result())
        with store._connection() as connection:
            connection.execute(
                "UPDATE results SET created = ?", (time.time() - 10.0,)
            )
        assert store.get("k") is None
        assert len(store) == 0

    def test_sqlite_lru_prune(self, tmp_path):
        store = SQLiteStore(os.path.join(str(tmp_path), "r.db"), max_entries=2)
        store.put("a", make_result(tag="a"))
        time.sleep(0.02)
        store.put("b", make_result(tag="b"))
        time.sleep(0.02)
        store.put("c", make_result(tag="c"))
        time.sleep(0.02)
        assert store.get("a") is not None  # touch the oldest entry
        assert store.prune() == 1
        assert store.get("b") is None  # least recently accessed
        assert store.get("a") is not None and store.get("c") is not None

    def test_sqlite_prune_applies_both_bounds(self, tmp_path):
        store = SQLiteStore(
            os.path.join(str(tmp_path), "r.db"), ttl_s=5.0, max_entries=2
        )
        for index in range(4):
            store.put(f"k{index}", make_result(tag=str(index)))
            time.sleep(0.02)
        backdate_entry(store, "k0", 10.0)  # expired
        assert store.prune() == 2  # k0 by TTL, k1 as oldest beyond the bound
        assert list(store.keys()) == ["k2", "k3"]

    def test_tiered_prune_reaches_both_layers(self, tmp_path):
        front = MemoryStore(max_entries=1)
        back = SQLiteStore(str(tmp_path / "r.db"), max_entries=2)
        store = TieredStore(front, back)
        for index in range(4):
            store.put(f"k{index}", make_result(tag=str(index)))
            time.sleep(0.01)
        assert store.prune() >= 2
        assert len(back) == 2


# ---------------------------------------------------------------------- #
# corruption handling
# ---------------------------------------------------------------------- #


class TestCorruption:
    def test_sqlite_drops_corrupt_row_once(self, tmp_path):
        path = os.path.join(str(tmp_path), "r.db")
        store = SQLiteStore(path)
        store.put("k1", make_result(tag="a"))
        store.put("k2", make_result(tag="b"))
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET payload = '{torn'")
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            assert store.get("k1") is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get("k2") is None
        assert len(store) == 0

    def test_sqlite_get_json_drops_corrupt_row_once(self, tmp_path):
        path = os.path.join(str(tmp_path), "r.db")
        store = SQLiteStore(path)
        store.put("k1", make_result(tag="a"))
        store.put("k2", make_result(tag="b"))
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET payload = '{torn'")
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            assert store.get_json("k1") is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get_json("k2") is None
        assert len(store) == 0

    def test_get_and_get_json_share_one_warning(self, tmp_path):
        # One loader behind both reads: a corrupt row found by get_json
        # uses up the warning a later get would otherwise give.
        path = os.path.join(str(tmp_path), "r.db")
        store = SQLiteStore(path)
        store.put("k1", make_result(tag="a"))
        store.put("k2", make_result(tag="b"))
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET payload = '{torn'")
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            assert store.get_json("k1") is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get("k2") is None

    def test_sqlite_recovers_after_a_dropped_row(self, tmp_path):
        path = os.path.join(str(tmp_path), "r.db")
        store = SQLiteStore(path)
        store.put("k", make_result(tag="a"))
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET payload = 'not json at all'")
        with pytest.warns(RuntimeWarning, match="dropped"):
            assert store.get("k") is None
        store.put("k", make_result(tag="fresh"))
        assert store.get("k").scalars["tag"] == "fresh"

    def test_sqlite_get_json_rejects_valid_json_that_is_no_result(self, tmp_path):
        # The text parses as JSON but fails Result validation (wrong
        # schema version): it must be dropped, not served.
        store = SQLiteStore(os.path.join(str(tmp_path), "r.db"))
        store.put("k", make_result())
        rewrite_entry(store, "k", '{"schema_version": -1}')
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            assert store.get_json("k") is None
        assert len(store) == 0

    def test_torn_write_is_never_served_as_text(self, tmp_path):
        store = FaultyStore(
            build_store("sqlite", tmp_path),
            FaultPlan(ops=("put",), torn_write_on=(1,)),
        )
        store.put("k", make_result())
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_json("k") is None
        assert store.inner.get_json("k") is None  # dropped, not re-parsed


# ---------------------------------------------------------------------- #
# raw canonical-text reads (get_json)
# ---------------------------------------------------------------------- #

GET_JSON_BACKENDS = BACKENDS + ("resilient", "faulty")


def build_get_json_store(backend: str, root) -> Store:
    if backend == "resilient":
        return ResilientStore(build_store("sqlite", root))
    if backend == "faulty":
        return FaultyStore(build_store("sqlite", root), FaultPlan(ops=()))
    return build_store(backend, root)


@pytest.mark.parametrize("backend", GET_JSON_BACKENDS)
class TestGetJson:
    def test_text_equals_to_json_of_the_stored_result(self, backend, tmp_path):
        store = build_get_json_store(backend, tmp_path)
        result = make_result(kind="transient", tag="x", value=-2.5e-17)
        store.put("k", result)
        text = store.get_json("k")
        assert isinstance(text, str)
        assert text == result.to_json()
        assert text == store.get("k").to_json()
        # A second read (LRU touch, tiered front fill) serves the same text.
        assert store.get_json("k") == text

    def test_miss_is_none(self, backend, tmp_path):
        store = build_get_json_store(backend, tmp_path)
        assert store.get_json("absent") is None
        store.put("k", make_result())
        store.delete("k")
        assert store.get_json("k") is None


class TestGetJsonExpiry:
    def test_memory(self):
        store = MemoryStore(ttl_s=5.0)
        store.put("k", make_result())
        result, _ = store._entries["k"]
        store._entries["k"] = (result, time.time() - 10.0)
        assert store.get_json("k") is None
        assert len(store) == 0

    def test_sqlite(self, tmp_path):
        store = SQLiteStore(os.path.join(str(tmp_path), "r.db"), ttl_s=5.0)
        store.put("k", make_result())
        with store._connection() as connection:
            connection.execute(
                "UPDATE results SET created = ?", (time.time() - 10.0,)
            )
        assert store.get_json("k") is None
        assert len(store) == 0

    def test_sqlite_get_json_touches_the_lru_stamp(self, tmp_path):
        store = SQLiteStore(os.path.join(str(tmp_path), "r.db"), max_entries=2)
        for key in ("a", "b", "c"):
            store.put(key, make_result(tag=key))
            time.sleep(0.02)
        assert store.get_json("a") is not None  # touch the oldest entry
        assert store.prune() == 1
        assert store.get_json("b") is None  # least recently accessed
        assert store.get_json("a") is not None


class TestResilientGetJson:
    def test_faulting_inner_read_degrades_to_a_miss(self, tmp_path):
        faulty = FaultyStore(
            build_store("sqlite", tmp_path), FaultPlan(ops=("get",), fail_from=1)
        )
        store = ResilientStore(faulty, retries=1, backoff_s=0.0, _sleep=lambda _: None)
        store.put("k", make_result())
        assert store.get_json("k") is None
        metrics = store.metrics()
        assert metrics["degraded_gets"] == 1
        assert metrics["degraded_other"] == 0
        assert metrics["failures"] == 2 and metrics["retries"] == 1

    def test_retry_heals_an_intermittent_fault(self, tmp_path):
        faulty = FaultyStore(
            build_store("sqlite", tmp_path), FaultPlan(ops=("get",), fail_on=(1,))
        )
        store = ResilientStore(faulty, backoff_s=0.0, _sleep=lambda _: None)
        result = make_result()
        store.put("k", result)
        assert store.get_json("k") == result.to_json()
        assert store.metrics()["degraded_gets"] == 0
        assert store.metrics()["retries"] == 1


# ---------------------------------------------------------------------- #
# validate-once reads: durable stores remember validated payload digests
# ---------------------------------------------------------------------- #


def count_parses(monkeypatch) -> list:
    """Patch ``Result.from_json`` to record each text it parses."""
    parsed = []
    original = Result.from_json.__func__

    def counting(cls, text):
        parsed.append(text)
        return original(cls, text)

    monkeypatch.setattr(Result, "from_json", classmethod(counting))
    return parsed


def rewrite_entry(store: SQLiteStore, key: str, text: str) -> None:
    """Overwrite a stored payload behind the store's back."""
    with sqlite3.connect(store.path) as connection:
        connection.execute(
            "UPDATE results SET payload = ? WHERE key = ?", (text, key)
        )


def backdate_entry(store: SQLiteStore, key: str, age_s: float) -> None:
    with sqlite3.connect(store.path) as connection:
        connection.execute(
            "UPDATE results SET created = ? WHERE key = ?",
            (time.time() - age_s, key),
        )


@pytest.mark.parametrize("backend", ["sqlite", "worker"])
class TestValidatedReadMemo:
    def test_unchanged_entry_is_parsed_once(self, backend, tmp_path, monkeypatch):
        store = build_store(backend, tmp_path)
        result = make_result(kind="transient")
        store.put("k", result)
        parsed = count_parses(monkeypatch)
        assert store.get_json("k") == result.to_json()
        assert len(parsed) == 1  # put records no digest: the first read parses
        assert store.get_json("k") == result.to_json()
        assert len(parsed) == 1
        # get still returns a parsed Result.
        assert store.get("k").to_json() == result.to_json()
        assert len(parsed) == 2

    def test_entry_torn_after_a_validated_read_is_dropped(
        self, backend, tmp_path, monkeypatch
    ):
        store = build_store(backend, tmp_path)
        text = make_result().to_json()
        store.put("k", make_result())
        assert store.get_json("k") == text
        rewrite_entry(store, "k", text[: len(text) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_json("k") is None
        assert len(store) == 0
        # The failure forgot the key: the same valid bytes, stored again,
        # are parsed again before they are served.
        store.put("k", make_result())
        parsed = count_parses(monkeypatch)
        assert store.get_json("k") == text
        assert len(parsed) == 1

    def test_rewritten_entry_is_revalidated(self, backend, tmp_path, monkeypatch):
        store = build_store(backend, tmp_path)
        store.put("k", make_result(tag="old"))
        assert store.get_json("k") is not None
        fresh = make_result(tag="new", value=-7.0).to_json()
        rewrite_entry(store, "k", fresh)
        parsed = count_parses(monkeypatch)
        assert store.get_json("k") == fresh
        assert parsed == [fresh]
        assert store.get_json("k") == fresh
        assert parsed == [fresh]

    def test_ttl_expiry_applies_to_a_validated_entry(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        store.ttl_s = 5.0
        store.put("k", make_result())
        assert store.get_json("k") is not None
        backdate_entry(store, "k", 10.0)
        assert store.get_json("k") is None
        assert len(store) == 0

    def test_threads_reading_one_key_get_identical_text(self, backend, tmp_path):
        store = build_store(backend, tmp_path)
        result = make_result(kind="transient")
        store.put("k", result)
        texts = []
        barrier = threading.Barrier(8)

        def read() -> None:
            barrier.wait()
            for _ in range(20):
                texts.append(store.get_json("k"))

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(texts) == 160
        assert set(texts) == {result.to_json()}

    def test_memo_is_bounded(self, backend, tmp_path, monkeypatch):
        monkeypatch.setattr(stores, "_VALIDATED_DIGESTS_MAX", 2)
        store = build_store(backend, tmp_path)
        for key in ("a", "b", "c"):
            store.put(key, make_result(tag=key))
            assert store.get_json(key) is not None
        parsed = count_parses(monkeypatch)
        assert store.get_json("c") is not None and parsed == []
        assert store.get_json("a") is not None  # forgotten: parsed again
        assert len(parsed) == 1

    def test_pickled_store_validates_afresh(self, backend, tmp_path, monkeypatch):
        store = build_store(backend, tmp_path)
        text = make_result().to_json()
        store.put("k", make_result())
        assert store.get_json("k") == text
        copy = pickle.loads(pickle.dumps(store.worker_view()))
        parsed = count_parses(monkeypatch)
        assert copy.get_json("k") == text
        assert len(parsed) == 1
        rewrite_entry(store, "k", "{torn")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert copy.get_json("k") is None


def test_sqlite_lru_touch_is_written_on_a_validated_read(tmp_path, monkeypatch):
    store = SQLiteStore(os.path.join(str(tmp_path), "r.db"), max_entries=2)
    for key in ("a", "b", "c"):
        store.put(key, make_result(tag=key))
        time.sleep(0.02)
    assert store.get_json("a") is not None  # validated: "a" is in the memo
    with sqlite3.connect(store.path) as connection:
        connection.execute("UPDATE results SET accessed = 0.0")
    parsed = count_parses(monkeypatch)
    assert store.get_json("a") is not None
    assert parsed == []  # served from the memo ...
    with sqlite3.connect(store.path) as connection:
        (accessed,) = connection.execute(
            "SELECT accessed FROM results WHERE key = 'a'"
        ).fetchone()
    assert accessed > 0.0  # ... and still touched
    assert store.prune() == 1  # "b": untouched, first by key among equals
    assert list(store.keys()) == ["a", "c"]


# ---------------------------------------------------------------------- #
# concurrent multi-process access
# ---------------------------------------------------------------------- #

_HAMMER_ITERATIONS = 40


def _hammer_sqlite(path: str, key: str, writer_id: int) -> None:
    store = SQLiteStore(path)
    for index in range(_HAMMER_ITERATIONS):
        store.put(key, make_result(tag="w", value=writer_id * 1000.0 + index))


def test_concurrent_writers_same_key_no_torn_reads(tmp_path):
    """Two processes hammering one key: every read is a complete record."""
    location = os.path.join(str(tmp_path), "r.db")
    store = SQLiteStore(location)
    key = "contested"
    valid_values = {
        writer_id * 1000.0 + index
        for writer_id in (1, 2)
        for index in range(_HAMMER_ITERATIONS)
    }
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_hammer_sqlite, args=(location, key, writer_id))
        for writer_id in (1, 2)
    ]
    for writer in writers:
        writer.start()
    observed = 0
    while any(writer.is_alive() for writer in writers):
        result = store.get(key)
        if result is not None:
            # A torn read would fail to parse and drop the row.
            assert result.scalars["tag"] == "w"
            assert float(result.arrays["data"][0]) in valid_values
            observed += 1
    for writer in writers:
        writer.join()
        assert writer.exitcode == 0
    assert observed > 0
    final = store.get(key)
    assert final is not None
    # Last writer wins: the surviving record is some writer's final put.
    assert float(final.arrays["data"][0]) in {
        1000.0 + _HAMMER_ITERATIONS - 1,
        2000.0 + _HAMMER_ITERATIONS - 1,
    }


def test_memory_store_is_thread_safe_under_contention():
    """Threads racing get/put on one key must never see a KeyError.

    The LRU bookkeeping (``get`` re-inserts the key, ``put`` evicts) is a
    non-atomic dict dance; the service layer shares one MemoryStore across
    worker and HTTP handler threads, so the primitives must lock.  Without
    the lock this reliably raises within a few thousand iterations.
    """
    store = MemoryStore(max_entries=4)
    shared = make_result(tag="hot")
    store.put("hot", shared)
    errors = []

    def reader():
        try:
            for _ in range(4000):
                store.get("hot")
                store.get("cold-miss")
        except Exception as error:  # pragma: no cover — the regression
            errors.append(error)

    def writer(writer_id):
        try:
            for index in range(4000):
                store.put("hot", shared)
                # Churn distinct keys so put's eviction loop runs.
                store.put(f"churn-{writer_id}-{index % 8}", shared)
        except Exception as error:  # pragma: no cover — the regression
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(2)] + [
        threading.Thread(target=writer, args=(writer_id,))
        for writer_id in (1, 2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert store.get("hot") is shared
    assert len(store) <= 4


# ---------------------------------------------------------------------- #
# composition, sharing, ResultSet
# ---------------------------------------------------------------------- #


class TestComposition:
    def test_tiered_read_through_populates_front(self, tmp_path):
        back = SQLiteStore(str(tmp_path / "r.db"))
        back.put("k", make_result(tag="deep"))
        store = TieredStore(MemoryStore(), back)
        assert len(store.front) == 0
        assert store.get("k").scalars["tag"] == "deep"
        assert len(store.front) == 1  # promoted on read

    def test_worker_views(self, tmp_path):
        assert MemoryStore().worker_view() is None
        sqlite_store = SQLiteStore(str(tmp_path / "r.db"))
        assert sqlite_store.worker_view() is sqlite_store
        tiered = TieredStore(MemoryStore(), sqlite_store)
        assert tiered.worker_view() is sqlite_store
        assert TieredStore(MemoryStore()).worker_view() is None

    def test_sqlite_store_pickles_without_connections(self, tmp_path):
        import pickle

        store = SQLiteStore(str(tmp_path / "r.db"))
        store.put("k", make_result(tag="x"))
        clone = pickle.loads(pickle.dumps(store))
        assert clone._connections == {}
        assert clone.get("k").scalars["tag"] == "x"

    def test_resultset_from_store_ordered_keys(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "r.db"))
        store.put("k1", make_result(kind="dcop", tag="a"))
        store.put("k2", make_result(kind="transient", tag="b"))
        study = ResultSet.from_store(store, keys=["k2", "k1"])
        assert [r.scalars["tag"] for r in study] == ["b", "a"]
        with pytest.raises(KeyError, match="missing"):
            ResultSet.from_store(store, keys=["missing"])

    def test_resultset_from_store_kind_filter(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "r.db"))
        store.put("k1", make_result(kind="dcop", tag="a"))
        store.put("k2", make_result(kind="transient", tag="b"))
        store.put("k3", make_result(kind="dcop", tag="c"))
        study = ResultSet.from_store(store, kind="dcop")
        assert {r.scalars["tag"] for r in study} == {"a", "c"}
        assert len(ResultSet.from_store(store)) == 3


class TestFromStorePagination:
    """`from_store(limit=, offset=)` — the seam GET /results pages through."""

    def fill(self, store, count=7):
        for index in range(count):
            kind = "dcop" if index % 2 == 0 else "transient"
            store.put(f"k{index}", make_result(kind=kind, tag=f"t{index}"))
        return store

    def test_pages_follow_sorted_key_order(self, tmp_path):
        store = self.fill(SQLiteStore(str(tmp_path / "r.db")))
        first = ResultSet.from_store(store, limit=3)
        second = ResultSet.from_store(store, limit=3, offset=3)
        third = ResultSet.from_store(store, limit=3, offset=6)
        tags = [r.scalars["tag"] for page in (first, second, third) for r in page]
        assert tags == [f"t{i}" for i in range(7)]
        assert [len(first), len(second), len(third)] == [3, 3, 1]

    def test_memory_store_pages_sorted_not_lru(self):
        store = self.fill(MemoryStore())
        store.get("k5")  # touch: changes LRU order, must not change pages
        store.get("k0")
        page = ResultSet.from_store(store, limit=4)
        assert [r.scalars["tag"] for r in page] == ["t0", "t1", "t2", "t3"]

    def test_kind_filter_composes_with_paging(self, tmp_path):
        store = self.fill(SQLiteStore(str(tmp_path / "r.db")))
        page = ResultSet.from_store(store, kind="dcop", limit=2, offset=1)
        assert [r.scalars["tag"] for r in page] == ["t2", "t4"]

    def test_offset_past_end_and_zero_limit(self, tmp_path):
        store = self.fill(SQLiteStore(str(tmp_path / "r.db")))
        assert len(ResultSet.from_store(store, offset=100)) == 0
        assert len(ResultSet.from_store(store, limit=0)) == 0

    def test_explicit_keys_page_but_still_validate(self, tmp_path):
        store = self.fill(SQLiteStore(str(tmp_path / "r.db")))
        page = ResultSet.from_store(
            store, keys=["k6", "k3", "k0"], limit=1, offset=1
        )
        assert [r.scalars["tag"] for r in page] == ["t3"]
        with pytest.raises(KeyError, match="missing"):
            # The missing key sits beyond the requested page; paging must
            # not mask it.
            ResultSet.from_store(store, keys=["k0", "k1", "missing"], limit=1)

    def test_negative_paging_rejected(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "r.db"))
        with pytest.raises(ValueError, match="limit"):
            ResultSet.from_store(store, limit=-1)
        with pytest.raises(ValueError, match="offset"):
            ResultSet.from_store(store, offset=-1)


# ---------------------------------------------------------------------- #
# durability and the directory mount
# ---------------------------------------------------------------------- #


class TestDurability:
    def test_every_connection_runs_synchronous_full(self, tmp_path, monkeypatch):
        # A build whose WAL default is NORMAL would not sync the log on
        # commit; emulate one, so the store has to set FULL itself.
        connect = sqlite3.connect

        def normal_by_default(*args, **kwargs):
            connection = connect(*args, **kwargs)
            connection.execute("PRAGMA synchronous=NORMAL")
            return connection

        monkeypatch.setattr(sqlite3, "connect", normal_by_default)
        store = SQLiteStore(str(tmp_path / "r.db"))
        store.put("k", make_result())
        copy = pickle.loads(pickle.dumps(store))
        assert copy._connections == {}
        assert copy.get("k") is not None
        for connection in (store._connection(), copy._connection()):
            assert connection.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            # 2 is FULL: each commit syncs the write-ahead log.
            assert connection.execute("PRAGMA synchronous").fetchone() == (2,)


def write_parent_format(directory, results) -> dict:
    """Write ``{key: result}`` as the removed JSON-file backend did: one
    ``<key>.json`` holding exactly ``Result.to_json()``.  Returns the texts."""
    os.makedirs(directory, exist_ok=True)
    texts = {}
    for key, result in results.items():
        texts[key] = result.to_json()
        with open(os.path.join(directory, f"{key}.json"), "w", encoding="utf-8") as handle:
            handle.write(texts[key])
    return texts


class TestDirectoryMount:
    def test_a_directory_mounts_memory_over_results_db(self, tmp_path):
        for path in (str(tmp_path / "a"), tmp_path / "b"):
            store = resolve_store(path)
            assert isinstance(store, TieredStore)
            assert isinstance(store.front, MemoryStore)
            assert isinstance(store.back, SQLiteStore)
            assert store.back.path == os.path.join(os.fspath(path), "results.db")
            assert store.worker_view() is store.back
        instance = MemoryStore()
        assert resolve_store(instance) is instance

    @pytest.mark.parametrize("bad", [b"cache", 3, ["cache"]], ids=["bytes", "int", "list"])
    def test_anything_else_is_rejected(self, bad, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError, match="directory path"):
            resolve_store(bad)
        assert os.listdir(tmp_path) == []

    def test_old_directory_is_imported_once(self, tmp_path):
        directory = str(tmp_path / "cache")
        texts = write_parent_format(
            directory,
            {
                "k1": make_result(tag="a"),
                "k2": make_result(kind="transient", tag="b", value=-2.5e-17),
            },
        )
        # A crashed writer's temp file and a quarantined entry are no entries.
        for name in (".tmp-x.json", "k3.json.corrupt"):
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(texts["k1"])
        before = sorted(os.listdir(directory))
        store = resolve_store(directory)
        assert "results.db" in os.listdir(directory)
        assert list(store.keys()) == ["k1", "k2"]
        for key, text in texts.items():
            assert store.get_json(key) == text
            assert store.get(key).to_json() == text
        left = [name for name in os.listdir(directory) if not name.startswith("results.db")]
        assert sorted(left) == before  # every file stays on disk
        # The database exists now: a later mount imports nothing again.
        store.delete("k1")
        assert list(resolve_store(directory).keys()) == ["k2"]

    def test_unreadable_files_are_skipped_with_one_warning(self, tmp_path):
        directory = str(tmp_path / "cache")
        texts = write_parent_format(
            directory,
            {key: make_result(tag=key) for key in ("bad1", "bad2", "good")},
        )
        for key in ("bad1", "bad2"):
            with open(os.path.join(directory, f"{key}.json"), "w", encoding="utf-8") as handle:
                handle.write(texts[key][: len(texts[key]) // 2])
        with pytest.warns(RuntimeWarning, match="not imported") as caught:
            store = resolve_store(directory)
        assert len(caught) == 1
        assert list(store.keys()) == ["good"]
        assert store.get_json("good") == texts["good"]
        with open(os.path.join(directory, "bad1.json"), encoding="utf-8") as handle:
            assert handle.read() == texts["bad1"][: len(texts["bad1"]) // 2]

    def test_the_json_directory_store_is_gone(self, tmp_path):
        import repro.api

        with pytest.raises(TypeError, match=r"SQLiteStore.*Session\(store=<dir>\)"):
            JSONDirectoryStore(str(tmp_path))
        with pytest.raises(TypeError, match="removed"):
            JSONDirectoryStore(str(tmp_path), fsync=False)
        assert not {"get", "put"} & set(vars(JSONDirectoryStore))
        assert os.listdir(tmp_path) == []
        assert "JSONDirectoryStore" not in repro.api.__all__
        assert not hasattr(repro.api, "JSONDirectoryStore")
