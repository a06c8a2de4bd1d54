"""Pluggable result stores: the storage seam behind the Session cache.

The PR 4 cache hard-wired one layout (an in-memory dict in front of a
directory of ``<hash>.json`` files) into one class.  This module cuts that
into a :class:`Store` seam — ``get``/``put``/``delete``, key iteration and
:meth:`~Store.query` over stored :class:`~repro.api.results.Result`
records, TTL expiry and LRU eviction hooks, and provenance-aware
invalidation — with two backends plus a composition:

* :class:`MemoryStore` — a process-local LRU-bounded dict (the session
  default; what ``Session()`` always gave you);
* :class:`SQLiteStore` — one SQLite database file, safe for concurrent
  multi-process access (WAL journal, per-process connections), the one
  durable backend; the shared store of the distributed runner
  (:mod:`repro.api.distributed`);
* :class:`TieredStore` — a fast front (usually memory) over a persistent
  back, reads populating the front; ``Session(store="some/dir")`` builds
  ``TieredStore(MemoryStore(), SQLiteStore("some/dir/results.db"))``
  (:func:`resolve_store`), importing a directory of ``<hash>.json`` files
  written by the removed JSON-file backend once.

Every store keys on the spec content hash
(:func:`repro.api.hashing.spec_hash`), so the dedupe guarantee of the
session — one solve per distinct computation — extends across processes
and machines that share a persistent backend: a worker checks the store
before solving, and the serialization is bitwise-exact, so a result read
back is indistinguishable from the freshly computed one.
"""

from __future__ import annotations

import abc
import collections
import hashlib
import os
import random
import re
import sqlite3
import threading
import time
import warnings
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.api.results import Result

#: Keys must be safe as file names / SQL text; content hashes always are.
_SAFE_KEY = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not key or not _SAFE_KEY.match(key):
        raise ValueError(
            f"store keys must be non-empty [A-Za-z0-9._-] strings "
            f"(spec content hashes), got {key!r}"
        )
    return key


#: Keys whose validated-payload digest a durable store remembers (per
#: process); beyond it the least recently read key is forgotten and its
#: next read parses again.
_VALIDATED_DIGESTS_MAX = 4096


class _ValidatedDigests:
    """key -> SHA-256 digest of the text that last parsed into a valid
    :class:`Result` for that key, so a byte-identical re-read skips the
    parse.  LRU-bounded by :data:`_VALIDATED_DIGESTS_MAX` and thread-safe.

    Holds digests only, never text or results.  It is process-local: a
    pickled copy (a worker's store) starts empty and validates afresh.
    """

    def __init__(self) -> None:
        self._digests: "collections.OrderedDict[str, bytes]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_ValidatedDigests, ())

    def check(self, key: str, text: str, parse: bool) -> Optional[Result]:
        """Validate ``text`` as the payload of ``key``.

        Returns the parsed result, or ``None`` without parsing when
        ``parse`` is false and these exact bytes already parsed for
        ``key``.  Raises what :meth:`Result.from_json` raises, forgetting
        ``key`` first; only a successful parse records a digest.
        """
        try:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            if not parse:
                with self._lock:
                    if self._digests.get(key) == digest:
                        self._digests.move_to_end(key)
                        return None
            result = Result.from_json(text)
        except (ValueError, KeyError, TypeError):
            with self._lock:
                self._digests.pop(key, None)
            raise
        with self._lock:
            self._digests[key] = digest
            self._digests.move_to_end(key)
            if len(self._digests) > _VALIDATED_DIGESTS_MAX:
                self._digests.popitem(last=False)
        return result


class Store(abc.ABC):
    """spec hash -> :class:`Result` storage seam (see the module docstring).

    Subclasses implement the five primitives (``get``/``put``/``delete``/
    ``keys``/``__len__``); iteration, membership, :meth:`get_json`,
    :meth:`query`, :meth:`invalidate` and :meth:`clear` are derived.
    ``get`` must return ``None`` on any miss — absent, expired or
    unreadable — never raise for a missing entry.

    Eviction is cooperative: ``ttl_s`` bounds entry age (an expired entry
    reads as a miss and is dropped), ``max_entries`` bounds the entry
    count, and :meth:`prune` applies both bounds eagerly.  Backends where
    a bound is cheap to hold continuously (the in-memory dict) also apply
    it on ``put``.

    **Durability contract.**  A ``put`` that returns must never leave an
    entry that a later ``get`` reads *partially* — readers see the old
    complete entry, the new complete entry, or a miss, even under
    concurrent writers or a crashed writer (torn entries found on disk are
    dropped as a miss, never returned).  How far "returned" reaches is
    backend-specific: :class:`MemoryStore` entries die with the process;
    :class:`SQLiteStore` commits each ``put`` as one WAL transaction under
    ``PRAGMA synchronous=FULL``, so it survives process death and power
    loss as soon as ``put`` returns.  Callers that must not die with their
    storage wrap any backend in :class:`ResilientStore`, which converts
    backend exceptions into degraded (miss/dropped) behaviour behind
    retries and a circuit breaker.
    """

    #: Seconds an entry stays servable; ``None`` means forever.
    ttl_s: Optional[float] = None
    #: Entry-count bound applied by :meth:`prune`; ``None`` means unbounded.
    max_entries: Optional[int] = None

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def get(self, key: str) -> Optional[Result]:
        """The stored result for a key, or ``None`` on any kind of miss."""

    def get_json(self, key: str) -> Optional[str]:
        """The stored result's canonical JSON text, or ``None`` on any miss.

        The text is :meth:`Result.to_json` of what :meth:`get` returns, and
        this default computes exactly that.  :class:`SQLiteStore`, which
        keeps the canonical text, overrides it to return the stored text
        after the same validation ``get`` runs, so a reader that only
        forwards the JSON skips the re-encode; it parses a given payload
        once per process and serves byte-identical re-reads on a matching
        SHA-256 digest.
        :class:`TieredStore` serves its back tier's text.
        """
        result = self.get(key)
        return None if result is None else result.to_json()

    @abc.abstractmethod
    def put(self, key: str, result: Result) -> None:
        """Store a result under a key (last writer wins)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Drop a key; ``True`` if an entry was actually removed."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate the stored keys (deterministic order per backend)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    # ------------------------------------------------------------------ #
    # derived interface
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[str]:
        return self.keys()

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[str, Result]]:
        """Iterate ``(key, result)`` pairs (keys snapshot up front)."""
        for key in list(self.keys()):
            result = self.get(key)
            if result is not None:
                yield key, result

    def query(
        self,
        kind: Optional[str] = None,
        where: Optional[Callable[[Result], bool]] = None,
    ) -> Iterator[Result]:
        """Iterate stored results, optionally filtered.

        ``kind`` matches :attr:`Result.kind` (``"dcop"``, ``"transient"``,
        ``"montecarlo"``, ...); ``where`` is an arbitrary predicate on the
        loaded result.
        """
        for _, result in self.items():
            if kind is not None and result.kind != kind:
                continue
            if where is not None and not where(result):
                continue
            yield result

    def count(self, kind: Optional[str] = None) -> int:
        """Number of stored entries, optionally restricted to one result kind.

        ``count()`` (no kind) is always cheap — it is :func:`len`.  The
        default kind-filtered count walks :meth:`query`, which loads every
        result; backends that can count a kind without deserializing
        (memory, SQLite) override this.  The paginated service listing
        reports its ``total`` through this seam.
        """
        if kind is None:
            return len(self)
        return sum(1 for _ in self.query(kind=kind))

    def clear(self) -> None:
        """Drop every entry."""
        for key in list(self.keys()):
            self.delete(key)

    def prune(self) -> int:
        """Apply the TTL and entry-count bounds now; returns entries dropped."""
        return 0

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def invalidate(self, where: Callable[[str, Result], bool]) -> int:
        """Delete every entry matching ``where(key, result)``; returns count."""
        dropped = 0
        for key, result in list(self.items()):
            if where(key, result):
                dropped += bool(self.delete(key))
        return dropped

    def invalidate_provenance(
        self, reference: Optional[Mapping[str, Any]] = None
    ) -> int:
        """Drop entries whose provenance disagrees with ``reference``.

        ``reference`` maps provenance fields to expected values and
        defaults to the *current* environment — the source tree's
        ``git describe`` and the library versions — so a long-lived store
        can be swept after an upgrade: every result computed by a
        different build is dropped, everything this build would reproduce
        bit-identically stays.  An entry with no recorded value for a
        referenced field counts as stale.
        """
        if reference is None:
            from repro.api.session import git_describe, library_versions

            reference = {
                "git": git_describe(),
                "versions": dict(library_versions()),
            }

        def stale(key: str, result: Result) -> bool:
            return any(
                result.provenance.get(field) != expected
                for field, expected in reference.items()
            )

        return self.invalidate(stale)

    # ------------------------------------------------------------------ #
    # sharing
    # ------------------------------------------------------------------ #

    def worker_view(self) -> Optional["Store"]:
        """A picklable handle other processes can read/write, or ``None``.

        The distributed runner ships this to its workers; a purely
        process-local store (memory) returns ``None``, a persistent store
        returns itself.
        """
        return None

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def _expired(self, created: float) -> bool:
        return self.ttl_s is not None and (time.time() - created) > self.ttl_s


class MemoryStore(Store):
    """A process-local LRU store (the default session cache).

    Entries beyond ``max_entries`` are evicted least-recently-used on
    ``put``; a ``ttl_s`` bounds entry age.  Results are stored by
    reference — the session copies across the cache boundary, so callers
    of the raw store must not mutate what they get back.

    Thread-safe: the LRU bookkeeping (``get`` re-inserts the key, ``put``
    evicts) is a non-atomic dict dance, and the service layer shares one
    store across worker and HTTP handler threads, so every primitive runs
    under one lock.
    """

    def __init__(
        self, max_entries: Optional[int] = 256, ttl_s: Optional[float] = None
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("at least one in-memory entry is required")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._entries: Dict[str, Tuple[Result, float]] = {}
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[Result]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            result, created = entry
            if self._expired(created):
                del self._entries[key]
                return None
            # Plain-dict LRU: re-insertion moves the key to the back, the
            # front is the least recently used entry.
            del self._entries[key]
            self._entries[key] = (result, created)
            return result

    def put(self, key: str, result: Result) -> None:
        _check_key(key)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (result, time.time())
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.pop(next(iter(self._entries)))

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def count(self, kind: Optional[str] = None) -> int:
        with self._lock:
            if kind is None:
                return len(self._entries)
            return sum(
                1
                for result, _ in self._entries.values()
                if result.kind == kind
            )

    def prune(self) -> int:
        with self._lock:
            before = len(self._entries)
            if self.ttl_s is not None:
                for key, (_, created) in list(self._entries.items()):
                    if self._expired(created):
                        del self._entries[key]
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.pop(next(iter(self._entries)))
            return before - len(self._entries)


class SQLiteStore(Store):
    """Results in one SQLite database file, safe for concurrent processes.

    The payload column holds the exact :meth:`Result.to_json` text, so the
    round trip is bitwise-exact.  The database runs in WAL mode (readers
    never block the writer) with a busy timeout, and every process/thread
    gets its own lazily opened connection — the store object pickles
    freely to worker processes, which is what the distributed runner
    relies on.  Every connection sets ``PRAGMA synchronous=FULL``: a
    ``put`` that returned survives power loss, whatever default the
    linked SQLite build gives WAL mode.

    ``ttl_s`` bounds entry age from the recorded creation time.  When
    ``max_entries`` is set, reads touch a last-access stamp and
    :meth:`prune` evicts least-recently-accessed entries beyond the bound.
    """

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS results ("
        " key TEXT PRIMARY KEY,"
        " payload TEXT NOT NULL,"
        " kind TEXT NOT NULL,"
        " created REAL NOT NULL,"
        " accessed REAL NOT NULL)"
    )

    def __init__(
        self,
        path: str,
        ttl_s: Optional[float] = None,
        max_entries: Optional[int] = None,
        timeout_s: float = 30.0,
    ):
        self.path = os.fspath(path)
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self.timeout_s = timeout_s
        self._connections: Dict[Tuple[int, int], sqlite3.Connection] = {}
        self._warned_corrupt = False
        self._validated = _ValidatedDigests()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._connection()  # create the schema eagerly; fail fast on a bad path

    # -- connection management ----------------------------------------- #

    def _connection(self) -> sqlite3.Connection:
        ident = (os.getpid(), threading.get_ident())
        connection = self._connections.get(ident)
        if connection is None:
            connection = sqlite3.connect(self.path, timeout=self.timeout_s)
            try:
                # WAL lets concurrent readers proceed under a writer; on
                # filesystems that refuse it the default journal still
                # works, just with coarser locking.
                connection.execute("PRAGMA journal_mode=WAL")
            except sqlite3.OperationalError:
                pass
            connection.execute("PRAGMA synchronous=FULL")
            with connection:
                connection.execute(self._SCHEMA)
            self._connections[ident] = connection
        return connection

    def close(self) -> None:
        """Close this process's connections (the file stays valid)."""
        for connection in self._connections.values():
            try:
                connection.close()
            except sqlite3.Error:
                pass
        self._connections.clear()

    def __getstate__(self) -> Dict[str, Any]:
        # Connections are per-process and never cross a pickle boundary;
        # the receiving process reopens lazily.
        state = self.__dict__.copy()
        state["_connections"] = {}
        return state

    # -- the Store interface ------------------------------------------- #

    def get(self, key: str) -> Optional[Result]:
        loaded = self._load(key, parse=True)
        return None if loaded is None else loaded[1]

    def get_json(self, key: str) -> Optional[str]:
        """The payload column, once it has parsed into a valid :class:`Result`.

        ``put`` stores :meth:`Result.to_json`, so this equals
        ``get(key).to_json()`` without the re-encode.  TTL expiry, the
        corrupt-row drop and the LRU touch are those of :meth:`get` (one
        shared loader).  The parse runs once per distinct payload per
        process: a re-read whose SHA-256 digest matches the payload that
        last validated for the key is served without parsing again, and a
        torn or rewritten row is parsed (and, if broken, dropped) as on
        first read.
        """
        loaded = self._load(key, parse=False)
        return None if loaded is None else loaded[0]

    def _load(
        self, key: str, parse: bool
    ) -> Optional[Tuple[str, Optional[Result]]]:
        """``(payload, result)`` of a live, valid row, else ``None``.

        ``result`` is ``None`` when ``parse`` is false and these exact
        bytes already validated in this process (see
        :meth:`_ValidatedDigests.check`).
        """
        connection = self._connection()
        row = connection.execute(
            "SELECT payload, created FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        payload, created = row
        if self._expired(created):
            with connection:
                connection.execute("DELETE FROM results WHERE key = ?", (key,))
            return None
        try:
            result = self._validated.check(key, payload, parse)
        except (ValueError, KeyError, TypeError):
            with connection:
                connection.execute("DELETE FROM results WHERE key = ?", (key,))
            self._warn_corrupt(
                f"corrupt result row {key!r} dropped from {self.path!r}"
            )
            return None
        if self.max_entries is not None:
            # Track recency only when an LRU bound needs it: the touch is
            # a write, and concurrent readers should not pay for it
            # otherwise.
            with connection:
                connection.execute(
                    "UPDATE results SET accessed = ? WHERE key = ?",
                    (time.time(), key),
                )
        return payload, result

    def _warn_corrupt(self, message: str) -> None:
        """Warn of the first corrupt entry this store object meets."""
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"{message}; further corrupt entries are dropped without a "
                "warning.",
                RuntimeWarning,
                stacklevel=4,
            )

    def put(self, key: str, result: Result) -> None:
        _check_key(key)
        now = time.time()
        connection = self._connection()
        with connection:
            connection.execute(
                "INSERT OR REPLACE INTO results"
                " (key, payload, kind, created, accessed)"
                " VALUES (?, ?, ?, ?, ?)",
                (key, result.to_json(), result.kind, now, now),
            )

    def delete(self, key: str) -> bool:
        connection = self._connection()
        with connection:
            cursor = connection.execute(
                "DELETE FROM results WHERE key = ?", (key,)
            )
        return cursor.rowcount > 0

    def keys(self) -> Iterator[str]:
        rows = self._connection().execute(
            "SELECT key FROM results ORDER BY key"
        ).fetchall()
        return iter(row[0] for row in rows)

    def __len__(self) -> int:
        row = self._connection().execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        return int(row[0])

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self)
        row = self._connection().execute(
            "SELECT COUNT(*) FROM results WHERE kind = ?", (kind,)
        ).fetchone()
        return int(row[0])

    def query(
        self,
        kind: Optional[str] = None,
        where: Optional[Callable[[Result], bool]] = None,
    ) -> Iterator[Result]:
        # Push the kind filter into SQL; the predicate still needs the
        # loaded result.
        if kind is None:
            yield from super().query(kind=None, where=where)
            return
        rows = self._connection().execute(
            "SELECT key FROM results WHERE kind = ? ORDER BY key", (kind,)
        ).fetchall()
        for (key,) in rows:
            result = self.get(key)
            if result is None or result.kind != kind:
                continue
            if where is not None and not where(result):
                continue
            yield result

    def prune(self) -> int:
        connection = self._connection()
        dropped = 0
        if self.ttl_s is not None:
            with connection:
                cursor = connection.execute(
                    "DELETE FROM results WHERE created < ?",
                    (time.time() - self.ttl_s,),
                )
            dropped += cursor.rowcount
        if self.max_entries is not None:
            excess = len(self) - self.max_entries
            if excess > 0:
                with connection:
                    cursor = connection.execute(
                        "DELETE FROM results WHERE key IN ("
                        " SELECT key FROM results"
                        " ORDER BY accessed ASC, key ASC LIMIT ?)",
                        (excess,),
                    )
                dropped += cursor.rowcount
        return dropped

    def worker_view(self) -> "SQLiteStore":
        return self


class TieredStore(Store):
    """A fast front store over a persistent back store.

    Reads check the front first and populate it from the back on a hit;
    writes and deletes go to both.  :meth:`get_json` is the exception: it
    serves the back tier's stored text when the back holds the key, and
    re-encodes the front's result only otherwise.  ``TieredStore(MemoryStore(),
    SQLiteStore(<dir>/results.db))`` is what ``Session(store=<dir>)``
    builds (:func:`resolve_store`): LRU-bounded memory over one durable
    database.
    """

    def __init__(self, front: Store, back: Optional[Store] = None):
        self.front = front
        self.back = back

    def get(self, key: str) -> Optional[Result]:
        result = self.front.get(key)
        if result is not None or self.back is None:
            return result
        result = self.back.get(key)
        if result is not None:
            self.front.put(key, result)
        return result

    def get_json(self, key: str) -> Optional[str]:
        """The back tier's :meth:`Store.get_json`; the front's result
        re-encoded only when the back misses or there is no back tier."""
        if self.back is not None:
            text = self.back.get_json(key)
            if text is not None:
                return text
        result = self.front.get(key)
        return None if result is None else result.to_json()

    def put(self, key: str, result: Result) -> None:
        self.front.put(key, result)
        if self.back is not None:
            self.back.put(key, result)

    def delete(self, key: str) -> bool:
        dropped_front = self.front.delete(key)
        dropped_back = self.back.delete(key) if self.back is not None else False
        return dropped_front or dropped_back

    def keys(self) -> Iterator[str]:
        merged = set(self.front.keys())
        if self.back is not None:
            merged.update(self.back.keys())
        return iter(sorted(merged))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self)
        # Writes and deletes hit both tiers, so the persistent back is the
        # authoritative census; a front-only store counts itself.
        backend = self.back if self.back is not None else self.front
        return backend.count(kind)

    def clear(self) -> None:
        self.front.clear()
        if self.back is not None:
            self.back.clear()

    def prune(self) -> int:
        dropped = self.front.prune()
        if self.back is not None:
            dropped += self.back.prune()
        return dropped

    def worker_view(self) -> Optional[Store]:
        if self.back is not None:
            return self.back.worker_view()
        return self.front.worker_view()


def resolve_store(store: Any) -> Store:
    """The store ``Session(store=...)`` and ``serve(store=...)`` mount.

    A :class:`Store` is used as-is.  A directory path (``str`` or
    :class:`os.PathLike`) mounts ``TieredStore(MemoryStore(),
    SQLiteStore(<dir>/results.db))``; when this call creates the database
    in a directory that holds ``<key>.json`` files (the layout of the
    removed JSON-file backend), each of them is imported once.  Anything
    else, a ``bytes`` path included, raises :class:`TypeError`.
    """
    if isinstance(store, Store):
        return store
    directory = (
        os.fspath(store) if isinstance(store, (str, os.PathLike)) else None
    )
    if not isinstance(directory, str):
        raise TypeError(
            "store must be a repro.api.stores.Store, a str or os.PathLike "
            f"directory path, or None; got {type(store).__qualname__!r}"
        )
    path = os.path.join(directory, "results.db")
    created = not os.path.exists(path)
    back = SQLiteStore(path)
    if created:
        _import_json_files(directory, back)
    return TieredStore(MemoryStore(), back)


def _import_json_files(directory: str, store: SQLiteStore) -> None:
    """Put each ``<key>.json`` file of ``directory`` that parses into a
    valid :class:`Result` into ``store`` under ``<key>``; skip any other
    with the store's one-time warning.  Every file stays on disk."""
    for name in sorted(os.listdir(directory)):
        key = name[: -len(".json")]
        if not name.endswith(".json") or key.startswith("."):
            continue  # not an entry, or a crashed writer's temp file
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as handle:
                result = Result.from_json(handle.read())
            store.put(key, result)
        except (OSError, ValueError, KeyError, TypeError):
            store._warn_corrupt(
                f"corrupt result file {path!r} not imported into "
                f"{store.path!r}"
            )


class JSONDirectoryStore:
    """Removed: :class:`SQLiteStore` is the one durable backend, and
    ``Session(store=<dir>)`` mounts ``<dir>/results.db``, importing the
    directory's ``<key>.json`` files once (:func:`resolve_store`)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "JSONDirectoryStore was removed: use SQLiteStore(path), or "
            "Session(store=<dir>), which mounts <dir>/results.db and "
            "imports the directory's <key>.json files once"
        )


class ResilientStore(Store):
    """A fault-absorbing wrapper over any :class:`Store`.

    The session, the service job manager and the distributed runner all
    use their store as a *cache* — losing it costs recomputation, never
    correctness.  A raw backend does not honour that contract: a full
    disk, an NFS hiccup or SQLite's ``database is locked`` raises out of
    ``get``/``put`` and aborts the study that was only caching through it.
    This wrapper restores the contract:

    * every operation is retried up to ``retries`` times with exponential
      backoff (``backoff_s * multiplier**attempt``) plus seeded jitter;
    * ``deadline_s`` (when set) bounds one operation's *total* wall clock,
      retries included — a hung backend call is abandoned in a helper
      thread and counted as a failure;
    * a circuit breaker opens after ``breaker_threshold`` consecutive
      failed attempts: while open, operations never touch the backend —
      ``get`` degrades to an instant miss, ``put`` is dropped and counted
      — until ``breaker_reset_s`` elapses and a single half-open probe is
      let through (success closes the breaker, failure re-opens it);
    * nothing ever raises out of the wrapper: the caller sees misses and
      dropped writes, and :meth:`metrics` reports exactly how degraded
      the store is (the service exposes this through ``/metrics``).

    The wrapper is bitwise-transparent when healthy — it adds no
    serialization of its own — and thread-safe.  ``worker_view()`` wraps
    the inner view in a fresh ``ResilientStore`` with the same policy, so
    distributed workers inherit the degradation behaviour (with their own
    process-local counters).

    All knobs default to values that change nothing for a healthy
    backend; wrap only where an unavailable cache must not be fatal.
    """

    def __init__(
        self,
        inner: Store,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_multiplier: float = 2.0,
        jitter: float = 0.25,
        deadline_s: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 5.0,
        seed: int = 0,
        _sleep: Callable[[float], None] = time.sleep,
        _clock: Callable[[], float] = time.monotonic,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or backoff_multiplier < 1.0 or jitter < 0:
            raise ValueError(
                "backoff_s/jitter must be >= 0 and backoff_multiplier >= 1"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if breaker_reset_s <= 0:
            raise ValueError(
                f"breaker_reset_s must be positive, got {breaker_reset_s}"
            )
        self.inner = inner
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_multiplier = backoff_multiplier
        self.jitter = jitter
        self.deadline_s = deadline_s
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.ttl_s = inner.ttl_s
        self.max_entries = inner.max_entries
        self._sleep = _sleep
        self._clock = _clock
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        self._state = "closed"  # closed | open | half-open
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._consecutive_failures = 0
        self._counters: Dict[str, int] = {
            "failures": 0,
            "retries": 0,
            "timeouts": 0,
            "degraded_gets": 0,
            "dropped_puts": 0,
            "degraded_other": 0,
            "breaker_opens": 0,
            "probes": 0,
            "short_circuited": 0,
        }

    def __getstate__(self) -> Dict[str, Any]:
        # Locks never cross a pickle boundary, injected sleep/clock
        # test hooks may not either, and breaker state plus counters are
        # process-local observations — the receiving process starts with
        # a closed breaker over the same policy.
        state = self.__dict__.copy()
        for name in ("_lock", "_sleep", "_clock", "_random"):
            state.pop(name, None)
        state["_state"] = "closed"
        state["_probe_in_flight"] = False
        state["_consecutive_failures"] = 0
        state["_counters"] = {key: 0 for key in self._counters}
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._sleep = time.sleep
        self._clock = time.monotonic
        self._random = random.Random(0)

    # -- breaker state -------------------------------------------------- #

    @property
    def breaker_state(self) -> str:
        """``"closed"`` (healthy), ``"open"`` (degrading) or ``"half-open"``."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.breaker_reset_s
        ):
            self._state = "half-open"
            self._probe_in_flight = False

    def _admit(self) -> bool:
        """Whether this operation may touch the backend right now."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probe_in_flight:
                # Exactly one probe at a time; everyone else keeps
                # degrading until it reports back.
                self._probe_in_flight = True
                self._counters["probes"] += 1
                return True
            self._counters["short_circuited"] += 1
            return False

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._state = "closed"

    def _record_failure(self) -> bool:
        """Count one failed attempt; returns ``True`` if the breaker is open."""
        with self._lock:
            self._counters["failures"] += 1
            self._consecutive_failures += 1
            if self._state == "half-open":
                # The probe failed: straight back to open, timer restarted.
                self._probe_in_flight = False
                self._state = "open"
                self._opened_at = self._clock()
                return True
            if (
                self._state == "closed"
                and self._consecutive_failures >= self.breaker_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._counters["breaker_opens"] += 1
                return True
            return self._state == "open"

    # -- the guarded call ----------------------------------------------- #

    def _bounded(self, func: Callable[[], Any], remaining: float) -> Any:
        """Run one attempt with a wall-clock bound (helper thread).

        The abandoned call cannot be interrupted; it finishes (or hangs)
        in a daemon thread without touching this operation again — the
        same walk-away discipline the service applies to timed-out solves.
        """
        box: Dict[str, Any] = {}
        done = threading.Event()

        def attempt() -> None:
            try:
                box["value"] = func()
            except BaseException as error:  # noqa: BLE001 — relayed below
                box["error"] = error
            done.set()

        thread = threading.Thread(
            target=attempt, name="repro-store-bounded-call", daemon=True
        )
        thread.start()
        if not done.wait(timeout=max(0.0, remaining)):
            with self._lock:
                self._counters["timeouts"] += 1
            raise TimeoutError(
                f"store operation exceeded the {self.deadline_s:g}s deadline"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _call(self, op: str, func: Callable[[], Any], fallback: Any) -> Any:
        if not self._admit():
            self._count_degraded(op)
            return fallback
        start = self._clock()
        attempt = 0
        while True:
            try:
                if self.deadline_s is None:
                    value = func()
                else:
                    value = self._bounded(
                        func, self.deadline_s - (self._clock() - start)
                    )
            except Exception:  # noqa: BLE001 — a cache must not be fatal
                opened = self._record_failure()
                out_of_time = (
                    self.deadline_s is not None
                    and self._clock() - start >= self.deadline_s
                )
                if opened or attempt >= self.retries or out_of_time:
                    self._count_degraded(op)
                    return fallback
                with self._lock:
                    self._counters["retries"] += 1
                    pause = (
                        self.backoff_s
                        * self.backoff_multiplier**attempt
                        * (1.0 + self.jitter * self._random.random())
                    )
                attempt += 1
                self._sleep(pause)
                continue
            self._record_success()
            return value

    def _count_degraded(self, op: str) -> None:
        with self._lock:
            if op == "get":
                self._counters["degraded_gets"] += 1
            elif op == "put":
                self._counters["dropped_puts"] += 1
            else:
                self._counters["degraded_other"] += 1

    # -- metrics -------------------------------------------------------- #

    def metrics(self) -> Dict[str, Any]:
        """A JSON-safe snapshot: breaker state plus degradation counters.

        ``degraded`` aggregates every operation served without the
        backend (missed gets, dropped puts, everything else); a nonzero
        value means results were recomputed instead of read, never that a
        wrong result was returned.
        """
        with self._lock:
            self._maybe_half_open_locked()
            snapshot: Dict[str, Any] = dict(self._counters)
            snapshot["state"] = self._state
            snapshot["consecutive_failures"] = self._consecutive_failures
            snapshot["degraded"] = (
                self._counters["degraded_gets"]
                + self._counters["dropped_puts"]
                + self._counters["degraded_other"]
            )
        return snapshot

    # -- the Store interface, each op degrading to a safe fallback ------ #

    def get(self, key: str) -> Optional[Result]:
        return self._call("get", lambda: self.inner.get(key), None)

    def get_json(self, key: str) -> Optional[str]:
        # The same read as get (retries, deadline, breaker, degraded-get
        # counter), returning the inner store's text.
        return self._call("get", lambda: self.inner.get_json(key), None)

    def put(self, key: str, result: Result) -> None:
        self._call("put", lambda: self.inner.put(key, result), None)

    def delete(self, key: str) -> bool:
        return bool(self._call("delete", lambda: self.inner.delete(key), False))

    def keys(self) -> Iterator[str]:
        keys = self._call("keys", lambda: list(self.inner.keys()), [])
        return iter(keys)

    def __len__(self) -> int:
        return int(self._call("len", lambda: len(self.inner), 0))

    def count(self, kind: Optional[str] = None) -> int:
        return int(self._call("count", lambda: self.inner.count(kind), 0))

    def prune(self) -> int:
        return int(self._call("prune", lambda: self.inner.prune(), 0))

    def clear(self) -> None:
        self._call("clear", lambda: self.inner.clear(), None)

    def worker_view(self) -> Optional[Store]:
        view = self.inner.worker_view()
        if view is None:
            return None
        if view is self.inner:
            return self
        return ResilientStore(
            view,
            retries=self.retries,
            backoff_s=self.backoff_s,
            backoff_multiplier=self.backoff_multiplier,
            jitter=self.jitter,
            deadline_s=self.deadline_s,
            breaker_threshold=self.breaker_threshold,
            breaker_reset_s=self.breaker_reset_s,
        )
