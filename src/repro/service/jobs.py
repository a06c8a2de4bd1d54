"""The async job manager behind the study-submission API.

A :class:`JobManager` maps submitted analysis specs onto *jobs* keyed by
the spec's content hash (:func:`repro.api.hashing.spec_hash`) — the same
key the result stores use, which makes the manager a dedupe layer in three
tiers:

1. **live-job dedupe** — a spec submitted while an identical job is
   queued or running joins that job instead of spawning a second solve,
   however many clients race on the POST;
2. **record dedupe** — resubmitting a spec whose job already finished
   returns the finished job immediately (``cached`` submissions never
   enqueue work);
3. **store dedupe** — a fresh manager (service restart) checks the shared
   :class:`~repro.api.stores.Store` before queueing: a warm store turns
   the submission into an instantly-``done`` job with zero Newton work.

Jobs run on a bounded pool of background worker threads, each owning its
own :class:`~repro.api.session.Session` over the shared store (sessions
are not thread-safe; stores are the sharing seam).  Every job walks the
state machine ``queued -> running -> done | failed`` with a per-job wall
clock timeout and a bounded retry budget; :meth:`JobManager.close` drains
gracefully (finish queued work, then stop) or cancels.

The manager is transport-agnostic — :mod:`repro.service.app` puts HTTP in
front of it, but it is equally usable in-process::

    manager = JobManager(store=SQLiteStore("results.db"), workers=4)
    view = manager.submit(DCOp(circuit=chain))
    manager.join()
    result = manager.result(view.id)
"""

from __future__ import annotations

import dataclasses
import os
import queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.hashing import spec_hash
from repro.api.results import Result
from repro.api.session import RunStatsSnapshot, Session
from repro.api.specs import AnalysisSpec
from repro.api.stores import MemoryStore, Store
from repro.service.journal import (
    JobJournal,
    decode_spec_payload,
    encode_spec_payload,
)

__all__ = [
    "JOB_STATES",
    "JobManager",
    "JobNotDone",
    "JobView",
    "ServiceClosed",
    "UnknownJob",
]

#: The job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Upper edges (ms) of the solve wall-time histogram buckets; the last
#: bucket is open-ended.  Powers-of-~3 cover sub-ms store hits up to
#: minutes-long lattice studies in 10 buckets.
WALL_MS_BUCKETS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0)


class UnknownJob(KeyError):
    """No job with the given id has been submitted to this manager."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(
            f"unknown job {job_id!r}; job ids are the spec content hashes "
            "returned by submit()"
        )


class JobNotDone(RuntimeError):
    """The job exists but has not produced a result (yet, or at all)."""

    def __init__(self, job_id: str, state: str, error: Optional[str] = None):
        self.job_id = job_id
        self.state = state
        self.error = error
        detail = f" ({error})" if error else ""
        super().__init__(f"job {job_id!r} is {state}{detail}")


class ServiceClosed(RuntimeError):
    """The manager is shutting down and accepts no new submissions."""


@dataclass(frozen=True)
class JobView:
    """A read-only snapshot of one job (what status endpoints hand out)."""

    id: str
    kind: str
    state: str
    cached: bool
    attempts: int
    error: Optional[str]
    created_s: float
    started_s: Optional[float]
    finished_s: Optional[float]
    wall_s: Optional[float]
    stats: Optional[RunStatsSnapshot]

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["stats"] = self.stats.to_dict() if self.stats is not None else None
        return payload


@dataclass
class _Job:
    """The manager's mutable job record (never leaves the lock)."""

    id: str
    spec: AnalysisSpec
    state: str = "queued"
    cached: bool = False
    attempts: int = 0
    error: Optional[str] = None
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    stats: Optional[RunStatsSnapshot] = None

    def view(self, cached: Optional[bool] = None) -> JobView:
        wall_s = None
        if self.started_s is not None and self.finished_s is not None:
            wall_s = self.finished_s - self.started_s
        return JobView(
            id=self.id,
            kind=self.spec.kind,
            state=self.state,
            cached=self.cached if cached is None else cached,
            attempts=self.attempts,
            error=self.error,
            created_s=self.created_s,
            started_s=self.started_s,
            finished_s=self.finished_s,
            wall_s=wall_s,
            stats=self.stats,
        )


class _Stop:
    """Queue sentinel shutting one worker down."""


class _AttemptTimeout(TimeoutError):
    """An attempt blew its wall-clock budget (the session is poisoned)."""


class JobManager:
    """Run submitted specs on a bounded worker pool over a shared store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.api.stores.Store` results land in and
        dedupe through (an in-memory LRU store when omitted).  Pass a
        persistent store to survive restarts warm.
    workers:
        Background worker threads (>= 1).  Each owns a private Session
        over the shared store, so distinct jobs solve concurrently while
        identical ones collapse onto one job id.
    job_timeout_s:
        Wall-clock budget per attempt.  ``None`` (default) means
        unbounded.  A timed-out attempt counts against the retry budget;
        the abandoned solve cannot be interrupted mid-LAPACK-call, so the
        worker walks away from its session and builds a fresh one —
        the rogue thread finishes (or not) in the background without
        touching any job state.
    max_retries:
        How many times a failed/timed-out attempt is requeued before the
        job goes ``failed`` (default 0: one attempt only).
    session_factory:
        Override how worker sessions are built (tests inject stat
        spies); defaults to ``Session(store=<shared store>)``.
    journal:
        A :class:`~repro.service.journal.JobJournal` (or a path to one)
        making acknowledged jobs durable: every submission is journaled
        before ``submit()`` returns, and a fresh manager over the same
        journal *replays* it — each job whose journal history is not
        terminal is re-queued idempotently (the shared store is consulted
        first, so already-finished work becomes an instant ``done``).
        ``None`` (default): no journal, the pre-existing in-memory
        behaviour.  A journal write failure never fails the job — it is
        counted in ``journal_errors`` and warned about once; durability
        degrades, availability does not.
    journal_fsync:
        When ``journal`` is a path: fsync every journal append (survives
        power loss, costs ~1 ms/record).  Off by default — the plain
        flush already survives ``kill -9``.
    """

    def __init__(
        self,
        store: Optional[Store] = None,
        workers: int = 2,
        job_timeout_s: Optional[float] = None,
        max_retries: int = 0,
        session_factory: Optional[Callable[[], Session]] = None,
        journal: Optional[Union[str, os.PathLike, JobJournal]] = None,
        journal_fsync: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"at least one worker is required, got {workers}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be positive, got {job_timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.store: Store = store if store is not None else MemoryStore()
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self._session_factory = session_factory or (
            lambda: Session(store=self.store)
        )
        if journal is None or isinstance(journal, JobJournal):
            self.journal: Optional[JobJournal] = journal
        else:
            self.journal = JobJournal(os.fspath(journal), fsync=journal_fsync)
        self._warned_journal = False
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._settled = threading.Condition(self._lock)
        self._closed = False
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "computed": 0,
            "cache_hits": 0,
            "failed": 0,
            "retries": 0,
            "timeouts": 0,
            "newton_iterations": 0,
            "recovered": 0,
            "journal_errors": 0,
        }
        self._wall_histogram: List[int] = [0] * (len(WALL_MS_BUCKETS) + 1)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        if self.journal is not None:
            self._recover()
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # submission and inspection
    # ------------------------------------------------------------------ #

    def submit(self, spec: AnalysisSpec) -> JobView:
        """Submit a spec; returns the (possibly pre-existing) job snapshot.

        The returned view's ``cached`` flag tells whether *this* submission
        was served without enqueueing new work — an identical job already
        live or finished, or the shared store already holding the result.
        A ``failed`` job is re-armed and queued again by a fresh
        submission.
        """
        if not isinstance(spec, AnalysisSpec):
            raise TypeError(
                f"submit() takes an analysis spec, got {type(spec).__qualname__}"
            )
        job_id = spec_hash(spec)
        with self._lock:
            if self._closed:
                raise ServiceClosed("the job manager is shut down")
            self._counters["submitted"] += 1
            job = self._jobs.get(job_id)
            if job is not None and job.state != "failed":
                # done: served from the finished record; queued/running:
                # the submission joins the live job.  Both are dedupe hits
                # (no new work enqueued), so both count in cache_hits.
                self._counters["cache_hits"] += 1
                return job.view(cached=True)
            cached_result = self.store.get(job_id)
            if cached_result is not None:
                job = _Job(id=job_id, spec=spec, state="done", cached=True)
                job.started_s = job.finished_s = job.created_s
                job.stats = RunStatsSnapshot(cached=1)
                self._jobs[job_id] = job
                self._counters["cache_hits"] += 1
                self._settled.notify_all()
                return job.view()
            if job is not None:  # failed: re-arm
                job.state = "queued"
                job.error = None
                job.attempts = 0
                job.created_s = time.time()
                job.started_s = job.finished_s = None
            else:
                job = _Job(id=job_id, spec=spec)
                self._jobs[job_id] = job
            self._append_journal("submit", job_id, spec=spec)
            self._queue.put(job)
            return job.view()

    def status(self, job_id: str) -> JobView:
        """The current snapshot of a job; raises :class:`UnknownJob`."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            return job.view()

    def jobs(self) -> List[JobView]:
        """Snapshots of every job this manager knows, newest first."""
        with self._lock:
            views = [job.view() for job in self._jobs.values()]
        return sorted(views, key=lambda view: view.created_s, reverse=True)

    def result(self, job_id: str) -> Result:
        """The finished job's :class:`~repro.api.results.Result`.

        Raises :class:`UnknownJob` for an unsubmitted id and
        :class:`JobNotDone` for a job that is still queued/running or has
        failed (the exception carries the state and error).
        """
        return self._stored(job_id, self.store.get)

    def result_json(self, job_id: str) -> str:
        """The finished job's result as canonical JSON text.

        The text equals ``result(job_id).to_json()``; it comes from
        :meth:`Store.get_json <repro.api.stores.Store.get_json>`, so a
        store that keeps the canonical text hands it over without a decode
        and re-encode.  Raises exactly what :meth:`result` raises.
        """
        return self._stored(job_id, self.store.get_json)

    def _stored(self, job_id: str, read: Callable[[str], Any]) -> Any:
        """``read(job_id)`` for a done job, or the error :meth:`result` names."""
        view = self.status(job_id)
        if view.state != "done":
            raise JobNotDone(job_id, view.state, view.error)
        stored = read(job_id)
        if stored is None:
            # Evicted/expired between completion and the fetch: honest 410
            # material, not a silent recompute.
            raise JobNotDone(
                job_id, "done", "result evicted from the store; resubmit the spec"
            )
        return stored

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker (approximate, racy by nature)."""
        return self._queue.qsize()

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def metrics(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the manager's counters and histogram."""
        with self._lock:
            counters = dict(self._counters)
            histogram = list(self._wall_histogram)
        buckets = {
            f"le_{edge:g}ms": count
            for edge, count in zip(WALL_MS_BUCKETS, histogram)
        }
        buckets["inf"] = histogram[-1]
        return {
            **counters,
            "queue_depth": self.queue_depth,
            "workers": self.worker_count,
            "solve_wall_ms_histogram": buckets,
        }

    # ------------------------------------------------------------------ #
    # durability (the job journal)
    # ------------------------------------------------------------------ #

    def _append_journal(
        self,
        event: str,
        job_id: str,
        spec: Optional[AnalysisSpec] = None,
        error: Optional[str] = None,
    ) -> None:
        """Journal a transition; a failed append degrades, never raises."""
        if self.journal is None:
            return
        try:
            payload = None if spec is None else encode_spec_payload(spec)
            self.journal.append(event, job_id, spec=payload, error=error)
        except OSError as journal_error:
            self._counters["journal_errors"] += 1
            if not self._warned_journal:
                self._warned_journal = True
                warnings.warn(
                    f"job journal append failed ({journal_error}); jobs keep "
                    "running but are no longer durable across a restart",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def _recover(self) -> None:
        """Re-queue every journaled job whose history is not terminal.

        Runs once, from ``__init__``, before the workers start.  Recovery
        is idempotent by construction: job ids are spec hashes, so a
        recovered job dedupes against the store exactly like a live
        submission — work that finished before the crash (or between
        crash and restart) becomes an instant ``done`` with zero Newton
        work, and only genuinely unfinished specs re-enter the queue.
        """
        assert self.journal is not None
        for job_id, record in self.journal.replay().items():
            try:
                spec = decode_spec_payload(record.spec or {})
                actual = spec_hash(spec)
                if actual != job_id:
                    raise ValueError(
                        f"journaled spec hashes to {actual!r}, not the "
                        f"journaled id {job_id!r}"
                    )
            except Exception as error:  # noqa: BLE001 — quarantine, don't die
                warnings.warn(
                    f"job journal: cannot recover job {job_id!r} "
                    f"({type(error).__name__}: {error}); marking it failed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._append_journal(
                    "fail", job_id, error=f"unrecoverable journal record: {error}"
                )
                continue
            with self._lock:
                if job_id in self._jobs:
                    continue
                self._counters["recovered"] += 1
                cached_result = self.store.get(job_id)
                if cached_result is not None:
                    job = _Job(id=job_id, spec=spec, state="done", cached=True)
                    job.started_s = job.finished_s = job.created_s
                    job.stats = RunStatsSnapshot(cached=1)
                    self._jobs[job_id] = job
                    self._append_journal("finish", job_id)
                    self._settled.notify_all()
                    continue
                job = _Job(id=job_id, spec=spec)
                self._jobs[job_id] = job
                self._queue.put(job)
        try:
            self.journal.compact()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # waiting and shutdown
    # ------------------------------------------------------------------ #

    def join(self, timeout_s: Optional[float] = None) -> bool:
        """Block until every submitted job has settled (done or failed).

        Returns ``False`` on timeout.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._settled:
            while any(
                job.state in ("queued", "running") for job in self._jobs.values()
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(timeout=remaining)
        return True

    def close(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Shut the pool down; idempotent.

        ``drain=True`` (graceful): stop accepting submissions, let the
        workers finish everything already queued, then stop them.
        ``drain=False``: additionally mark still-queued jobs ``failed``
        ("cancelled at shutdown") so clients polling them see a terminal
        state instead of an eternal ``queued``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in self._jobs.values():
                    if job.state == "queued":
                        job.state = "failed"
                        job.error = "cancelled at shutdown"
                        job.finished_s = time.time()
                        self._counters["failed"] += 1
                        self._append_journal("cancel", job.id)
                self._settled.notify_all()
        for _ in self._workers:
            self._queue.put(_Stop)
        for thread in self._workers:
            thread.join(timeout=timeout_s)
        if self.journal is not None:
            try:
                self.journal.compact()
            except OSError:
                pass
            self.journal.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the worker side
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        session = self._session_factory()
        while True:
            item = self._queue.get()
            if item is _Stop:
                return
            job: _Job = item
            with self._lock:
                if job.state != "queued":  # cancelled at shutdown
                    continue
                job.state = "running"
                job.started_s = time.time()
                job.attempts += 1
                self._append_journal("start", job.id)
            try:
                stats = self._run_attempt(session, job)
                poisoned = False
                failure = None
            except _AttemptTimeout as error:
                stats, poisoned = None, True
                failure = f"TimeoutError: {error}"
            except Exception as error:  # noqa: BLE001 — job isolation
                stats, poisoned = None, False
                failure = f"{type(error).__name__}: {error}"
            if poisoned:
                # The timed-out attempt may still be running inside the old
                # session; never share it with the next job.
                session = self._session_factory()
            with self._lock:
                if failure is None and stats is not None:
                    job.state = "done"
                    job.error = None
                    job.finished_s = time.time()
                    job.cached = stats.computed == 0
                    job.stats = stats
                    self._counters["computed"] += stats.computed
                    self._counters["cache_hits"] += stats.cached
                    self._counters["newton_iterations"] += stats.newton_iterations
                    self._observe_wall_ms((job.finished_s - job.started_s) * 1e3)
                    self._append_journal("finish", job.id)
                    self._settled.notify_all()
                    continue
                if job.attempts <= self.max_retries and not self._closed:
                    job.state = "queued"
                    job.error = failure
                    self._counters["retries"] += 1
                    self._queue.put(job)
                    continue
                job.state = "failed"
                job.error = failure
                job.finished_s = time.time()
                self._counters["failed"] += 1
                self._append_journal("fail", job.id, error=failure)
                self._settled.notify_all()

    def _run_attempt(self, session: Session, job: _Job) -> RunStatsSnapshot:
        """One attempt; returns the stats snapshot or raises the failure."""
        if self.job_timeout_s is None:
            session.run(job.spec)
            return session.last_stats_snapshot()
        box: Dict[str, Any] = {}

        def attempt() -> None:
            try:
                session.run(job.spec)
                box["stats"] = session.last_stats_snapshot()
            except BaseException as error:  # noqa: BLE001 — relayed below
                box["error"] = error

        thread = threading.Thread(
            target=attempt, name=f"repro-service-job-{job.id[:12]}", daemon=True
        )
        thread.start()
        thread.join(timeout=self.job_timeout_s)
        if thread.is_alive():
            with self._lock:
                self._counters["timeouts"] += 1
            raise _AttemptTimeout(
                f"attempt exceeded the {self.job_timeout_s:g}s job timeout"
            )
        if "error" in box:
            raise box["error"]
        return box["stats"]

    def _observe_wall_ms(self, wall_ms: float) -> None:
        for index, edge in enumerate(WALL_MS_BUCKETS):
            if wall_ms <= edge:
                self._wall_histogram[index] += 1
                return
        self._wall_histogram[-1] += 1
