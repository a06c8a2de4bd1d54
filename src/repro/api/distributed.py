"""The process fan-out: a coordinator, worker processes, an optional store.

This is the maggma-style manager/worker pattern grown onto the
``Executor`` seam.  A :class:`DistributedExecutor` shards a ``run_many``
spec list to spawned worker *processes* over per-worker task queues, and
each worker sends its result home in the ``done`` message on its private
pipe.  Given a shared persistent :class:`~repro.api.stores.Store` (its
own, or the session's), every worker also dedupes through it (check
before solving, write after), so N workers handed the same study never
double-solve a spec and a later run finds the results warm.  Without a
shareable store the run simply has none.  A worker that dies mid-task is
detected by a liveness sweep, its in-flight task is requeued onto a
surviving worker and a replacement process is spawned (bounded budgets
on both).

The scheduling is free to be arbitrary because the *computation* is not:
specs fix every seed, and per-trial ``SeedSequence`` substreams make each
spec's result a pure function of the spec alone.  Whatever worker computes
it — first try or post-requeue — the ``Result`` JSON is bitwise identical
to a :class:`~repro.api.executors.SerialExecutor` run, which is exactly
what the smoke test in CI asserts.

Queue design: task assignment is recorded coordinator-side *before* the
task is enqueued to the chosen worker, so a worker death can never lose a
claim — anything assigned to a dead worker and not reported done is, by
construction, requeueable.  Workers report back (``ready`` on startup,
``done`` with the result or ``error`` per task, and heartbeats) over a
private simplex pipe each, written by exactly one process: a shared
multi-writer queue would serialize the writers through one lock, and a
worker hard-killed at the wrong moment dies *holding* it, silencing every
surviving worker forever (the documented kill-a-queue-user hazard).  With
one pipe per worker a death can corrupt only its own channel — and the
coordinator waits on the pipes *and* the process sentinels together, so a
crash is noticed the moment it happens, not on the next timeout.

Typical use goes through the executor seam::

    from repro.api import Session, SQLiteStore
    from repro.api.distributed import DistributedExecutor

    session = Session(store=SQLiteStore("results.db"))
    study = session.run_many(specs, executor=DistributedExecutor(workers=4))
    print(session.last_stats.computed, len(study))
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
from multiprocessing import connection as mp_connection
import os
import pickle
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.executors import Executor
from repro.api.hashing import spec_hash
from repro.api.results import Result
from repro.api.specs import AnalysisSpec
from repro.api.stores import Store

#: Message kinds a worker posts on its pipe.
_READY, _DONE, _ERROR, _BEAT = "ready", "done", "error", "beat"

#: Ceiling on one respawn-backoff sleep, however storm-y the deaths get.
_MAX_RESPAWN_BACKOFF_S = 5.0


@dataclasses.dataclass
class DistributedReport:
    """What one distributed run actually did (the executor's ``last_report``).

    ``computed`` + ``store_hits`` equals ``tasks``; ``requeued`` counts
    tasks re-dispatched after a worker death, ``worker_deaths``/
    ``respawned`` the process churn (``hung_workers`` the subset killed by
    an expired lease rather than found dead), and ``errors`` the per-task
    failure messages that exhausted their retry budget (empty on success).
    Under ``on_error="quarantine"`` exhausted tasks land in
    ``quarantined`` (spec hash -> failure message) instead of ``errors``
    and the run completes.
    """

    tasks: int = 0
    computed: int = 0
    store_hits: int = 0
    requeued: int = 0
    worker_deaths: int = 0
    hung_workers: int = 0
    respawned: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    quarantined: Dict[str, str] = dataclasses.field(default_factory=dict)


def _quarantined_result(spec: AnalysisSpec, content: str, message: str) -> Result:
    """The placeholder a quarantined spec gets in the returned study.

    Deliberately unmistakable for a real solve — ``meta["quarantined"]``
    is the marker (the session refuses to cache it), and the failure
    message rides along so the study report is self-explaining.
    """
    return Result(
        kind=spec.kind,
        spec_hash=content,
        scalars={"quarantined": True},
        convergence={"converged": False, "quarantined": True},
        meta={"quarantined": True, "error": message},
    )


def _worker_main(
    worker_id: int,
    task_queue: "mp.Queue",
    message_conn: "mp_connection.Connection",
    store: Optional[Store],
    prebuilt_blob: bytes,
    beat_s: float,
) -> None:
    """One worker process: pull tasks, dedupe through the store, solve.

    The worker owns a cache-less private :class:`Session` seeded with the
    coordinator's pre-compiled circuits, so it never recompiles.  Each
    result — computed, or read from the shared ``store`` on a hit — goes
    home in the ``done`` message on the worker's private pipe; the store
    (``None`` for a run without one) only dedupes and persists.

    A daemon thread heartbeats on the pipe every ``beat_s`` seconds.  The
    beats prove the *process* is alive; they deliberately say nothing
    about task progress — that is what the coordinator's per-task lease
    is for, and the combination is how a hung worker (beating, never
    finishing) is told apart from a dead one.
    """
    import threading

    from repro.api.session import Session

    send_lock = threading.Lock()

    def send(message: Tuple[str, int, Any, Any]) -> None:
        # Two senders (main loop + heartbeat thread) share the pipe; a
        # pipe write is only atomic under a lock.  A closed pipe means the
        # coordinator is gone — nothing useful left to do but exit.
        try:
            with send_lock:
                message_conn.send(message)
        except (BrokenPipeError, OSError):
            os._exit(0)

    def _beat() -> None:
        while True:
            time.sleep(beat_s)
            send((_BEAT, worker_id, None, None))

    threading.Thread(target=_beat, daemon=True).start()

    session = Session(store=None)
    session.adopt_circuits(pickle.loads(prebuilt_blob))
    send((_READY, worker_id, None, None))
    while True:
        task = task_queue.get()
        if task is None:  # shutdown sentinel
            return
        task_id, content, spec, fault = task
        if fault is not None:
            if fault["fault"] == "die":
                # Simulated hard crash for the requeue tests: no cleanup,
                # no message — exactly what a SIGKILL'd worker looks like.
                os._exit(1)
            # Simulated hang for the lease tests: the process stays alive
            # (heartbeats keep flowing) but the claimed task never
            # finishes — only a lease timeout can catch this.
            time.sleep(float(fault.get("stall_s", 3600.0)))
        try:
            result = store.get(content) if store is not None else None
            from_store = result is not None
            if not from_store:
                result = session.compute(spec)
                if store is not None:
                    store.put(content, result)
            send((_DONE, worker_id, task_id, (from_store, result)))
        except Exception as exc:  # surface, don't kill the worker
            send((_ERROR, worker_id, task_id, repr(exc)))


class DistributedExecutor(Executor):
    """Shard specs across spawned worker processes (the one process fan-out).

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    store:
        A store the workers dedupe through and write results to, kept
        across runs.  Must be multi-process shareable (``worker_view()``
        non-``None``: a :class:`~repro.api.stores.SQLiteStore`, or a
        :class:`~repro.api.stores.TieredStore` over one).  Omitted, the
        calling session's store is used through its ``worker_view()``
        (so a ``Session(store="dir")`` shares ``dir/results.db``); a
        session with no shareable store — ``store=None`` or a
        :class:`~repro.api.stores.MemoryStore` — runs with no store.
        Results come home over the workers' pipes either way.
    max_task_retries:
        How many times one task may be requeued (worker death or error)
        before the run fails.
    heartbeat_s:
        Fallback liveness-sweep period (> 0).  Deaths normally surface
        immediately through the process sentinels the coordinator waits
        on; the sweep only catches a process that is gone without its
        sentinel firing.  Workers also heartbeat on their pipes at this
        period (process-aliveness only).
    lease_timeout_s:
        Per-task lease: a dispatched task not finished within this budget
        means its worker is *hung* (alive but stuck — a wedged BLAS call,
        an NFS stall), which no sentinel or heartbeat can reveal.  The
        coordinator kills the worker, requeues its claims (counted in
        ``requeued``/``hung_workers``) and respawns within the usual
        budget.  ``None`` (default): no lease — a legitimately long solve
        is indistinguishable from a hang, so pick a budget comfortably
        above your slowest spec before enabling.
    respawn_backoff_s:
        First respawn delay after a worker death, doubling per respawn
        (capped at 5 s).  Default 0: immediate respawn.  A poisoned spec
        that crashes every worker it touches otherwise burns the whole
        respawn budget in milliseconds.
    on_error:
        ``"raise"`` (default): a task that exhausts its retry budget
        fails the run.  ``"quarantine"``: the run *completes*, the
        poisoned spec gets a placeholder result
        (``meta["quarantined"]`` set, never cached) and the spec-hash ->
        failure-message map lands in ``last_report.quarantined`` — one
        bad spec no longer discards a million good solves.

    After each ``run_specs`` the :class:`DistributedReport` of the run is
    available as :attr:`last_report`.
    """

    def __init__(
        self,
        workers: int = 2,
        store: Optional[Store] = None,
        max_task_retries: int = 2,
        heartbeat_s: float = 0.2,
        lease_timeout_s: Optional[float] = None,
        respawn_backoff_s: float = 0.0,
        on_error: str = "raise",
        _chaos: Optional[Mapping[str, Any]] = None,
    ):
        if workers < 1:
            raise ValueError("at least one worker is required")
        if store is not None and store.worker_view() is None:
            raise ValueError(
                "the distributed runner needs a multi-process shareable "
                "store (a SQLiteStore, or a TieredStore over one); "
                f"{type(store).__qualname__} is process-local"
            )
        if heartbeat_s <= 0:
            # wait(timeout=0) returns at once: the coordinator would spin.
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        if lease_timeout_s is not None and lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be positive, got {lease_timeout_s}"
            )
        if respawn_backoff_s < 0:
            raise ValueError(
                f"respawn_backoff_s must be >= 0, got {respawn_backoff_s}"
            )
        if on_error not in ("raise", "quarantine"):
            raise ValueError(
                f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
            )
        self.workers = workers
        self.store = store
        self.max_task_retries = max_task_retries
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = lease_timeout_s
        self.respawn_backoff_s = respawn_backoff_s
        self.on_error = on_error
        self._chaos = _chaos
        self.last_report: Optional[DistributedReport] = None

    def _shared_store(self, session) -> Optional[Store]:
        """The store the workers dedupe through, or ``None`` for none."""
        if self.store is not None:
            return self.store.worker_view()
        session_store = getattr(session, "store", None)
        return None if session_store is None else session_store.worker_view()

    # -- worker lifecycle ---------------------------------------------- #

    def _spawn(
        self,
        context,
        worker_id: int,
        store: Optional[Store],
        prebuilt_blob: bytes,
    ) -> Tuple[Any, Any, Any]:
        task_queue = context.Queue()
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                writer,
                store,
                prebuilt_blob,
                self.heartbeat_s,
            ),
            daemon=True,
        )
        process.start()
        # The child holds its own duplicate of the write end; closing ours
        # makes the reader raise EOFError the moment the worker dies.
        writer.close()
        return process, task_queue, reader

    # -- the run ------------------------------------------------------- #

    def run_specs(self, session, specs: Sequence[AnalysisSpec]) -> List[Result]:
        """Compute one result per spec (order preserved); see class docs."""
        hashes = [spec_hash(spec) for spec in specs]
        report = self.last_report = DistributedReport(tasks=len(specs))
        if not specs:
            return []
        store = self._shared_store(session)

        # fork would duplicate any open SQLite connection state into the
        # children; spawn gives each worker a clean process that reopens
        # the store through its own connections.
        context = mp.get_context("spawn")
        prebuilt_blob = pickle.dumps(session.prepare_circuits(specs))

        # One task per *distinct* hash: duplicates share its result.
        tasks: Dict[int, Tuple[str, AnalysisSpec]] = {}
        seen: set = set()
        for content, spec in zip(hashes, specs):
            if content not in seen:
                seen.add(content)
                tasks[len(tasks)] = (content, spec)

        processes: Dict[int, Any] = {}
        task_queues: Dict[int, Any] = {}
        readers: Dict[int, Any] = {}
        assigned: Dict[int, int] = {}  # task_id -> worker_id
        attempts: Dict[int, int] = {task_id: 0 for task_id in tasks}
        leases: Dict[int, float] = {}  # task_id -> monotonic deadline
        last_beat: Dict[int, float] = {}  # worker_id -> monotonic timestamp
        pending: List[int] = list(tasks)
        done: Dict[int, Result] = {}  # task_id -> the result its worker sent
        quarantined_ids: set = set()
        idle: List[int] = []
        ready_workers: set = set()
        startup_deaths = 0  # workers dead before they reported ready
        startup_exitcode: Optional[int] = None
        respawn_budget = self.workers  # replacements, not a license to leak
        next_worker_id = 0
        dispatches = 0

        width = min(self.workers, len(tasks))

        def settled() -> int:
            return len(done) + len(quarantined_ids)

        def exhaust(task_id: int, reason: str) -> None:
            # The task is out of retries: fail the run or quarantine the
            # spec, per on_error.
            if self.on_error == "quarantine":
                content, _ = tasks[task_id]
                quarantined_ids.add(task_id)
                report.quarantined[content] = reason
            else:
                report.errors.append(reason)

        def spawn_worker() -> None:
            nonlocal next_worker_id
            (
                processes[next_worker_id],
                task_queues[next_worker_id],
                readers[next_worker_id],
            ) = self._spawn(context, next_worker_id, store, prebuilt_blob)
            next_worker_id += 1

        for _ in range(width):
            spawn_worker()

        def dispatch(worker_id: int) -> None:
            nonlocal dispatches
            task_id = pending.pop(0)
            # Record the claim BEFORE the task can reach the worker: a
            # death between these lines then still counts as assigned,
            # so the death handler requeues it.
            assigned[task_id] = worker_id
            attempts[task_id] += 1
            if self.lease_timeout_s is not None:
                leases[task_id] = time.monotonic() + self.lease_timeout_s
            content, spec = tasks[task_id]
            # The chaos hook picks the Nth dispatch, whichever worker
            # takes it, so the fault fires exactly once on every run.
            dispatches += 1
            fault = None
            if self._chaos and dispatches == int(self._chaos.get("on_dispatch", 1)):
                fault = self._chaos
            task_queues[worker_id].put((task_id, content, spec, fault))

        def requeue_from(worker_id: int) -> None:
            for task_id, owner in list(assigned.items()):
                if owner == worker_id and task_id not in done:
                    del assigned[task_id]
                    leases.pop(task_id, None)
                    if attempts[task_id] > self.max_task_retries:
                        exhaust(
                            task_id,
                            f"task {task_id} exceeded {self.max_task_retries} "
                            "retries (worker death)",
                        )
                    else:
                        pending.insert(0, task_id)
                        report.requeued += 1

        def handle_message(worker_id: int, message) -> None:
            kind, _, task_id, detail = message
            if kind == _BEAT:
                last_beat[worker_id] = time.monotonic()
            elif kind == _READY:
                ready_workers.add(worker_id)
                if worker_id in processes:
                    idle.append(worker_id)
            elif kind == _DONE:
                if task_id not in done:
                    from_store, done[task_id] = detail
                    if from_store:
                        report.store_hits += 1
                    else:
                        report.computed += 1
                assigned.pop(task_id, None)
                leases.pop(task_id, None)
                if worker_id in processes:
                    idle.append(worker_id)
            elif kind == _ERROR:
                assigned.pop(task_id, None)
                leases.pop(task_id, None)
                if attempts[task_id] > self.max_task_retries:
                    exhaust(task_id, f"task {task_id} failed: {detail}")
                else:
                    pending.insert(0, task_id)
                    report.requeued += 1
                if worker_id in processes:
                    idle.append(worker_id)

        def handle_death(worker_id: int) -> None:
            nonlocal respawn_budget, startup_deaths, startup_exitcode
            if worker_id not in processes:
                return  # already handled (sentinel + EOF both fired)
            process = processes.pop(worker_id)
            del task_queues[worker_id]
            reader = readers.pop(worker_id)
            if worker_id in idle:
                idle.remove(worker_id)
            report.worker_deaths += 1
            # Drain whatever it sent before dying, so finished work is
            # not requeued, then give its remaining claims back.
            while True:
                try:
                    if not reader.poll():
                        break
                    handle_message(worker_id, reader.recv())
                except (EOFError, OSError):
                    break
            reader.close()
            requeue_from(worker_id)
            last_beat.pop(worker_id, None)
            process.join(timeout=1.0)  # reap; it is already dead
            if worker_id not in ready_workers:
                startup_deaths += 1
                startup_exitcode = process.exitcode
            live_needed = bool(pending) or settled() < len(tasks)
            if live_needed and respawn_budget > 0 and len(processes) < width:
                respawn_budget -= 1
                report.respawned += 1
                if self.respawn_backoff_s > 0:
                    # Exponential: a spec that kills every worker it
                    # touches must not chew through the respawn budget at
                    # process-spawn speed.
                    time.sleep(
                        min(
                            _MAX_RESPAWN_BACKOFF_S,
                            self.respawn_backoff_s
                            * (2.0 ** (report.respawned - 1)),
                        )
                    )
                spawn_worker()

        def expire_leases() -> None:
            if self.lease_timeout_s is None:
                return
            now = time.monotonic()
            for task_id, deadline in list(leases.items()):
                if deadline > now or task_id in done:
                    continue
                worker_id = assigned.get(task_id)
                if worker_id is None or worker_id not in processes:
                    leases.pop(task_id, None)
                    continue
                # The worker holds an expired lease: it is hung (its
                # sentinel and heartbeats say alive, its task says stuck).
                # Kill it — requeue and respawn ride the ordinary death
                # path, so a lease expiry and a crash behave identically
                # downstream.
                report.hung_workers += 1
                processes[worker_id].kill()
                handle_death(worker_id)

        try:
            while settled() < len(tasks):
                if report.errors:
                    break
                # Hand work to every idle worker first.
                while idle and pending:
                    dispatch(idle.pop(0))
                if not processes:
                    reason = "all workers died and the respawn budget is spent"
                    if startup_deaths:
                        reason += (
                            f"; {startup_deaths} died during start-up, "
                            "before reporting ready (last exitcode "
                            f"{startup_exitcode}): a spawned worker re-imports "
                            "the parent's __main__ module by path, which fails "
                            "when the script came from stdin or was deleted"
                        )
                    report.errors.append(reason)
                    break
                # One wait over every worker's message pipe AND process
                # sentinel: a message and a crash wake the coordinator
                # equally fast, and no shared writer state exists for a
                # dying worker to poison.
                source_of: Dict[Any, int] = {}
                for worker_id, reader in readers.items():
                    source_of[reader] = worker_id
                for worker_id, process in processes.items():
                    source_of[process.sentinel] = worker_id
                timeout = self.heartbeat_s
                if leases:
                    # Wake no later than the soonest lease deadline, so a
                    # hang is caught within its lease, not a sweep later.
                    soonest = min(leases.values()) - time.monotonic()
                    timeout = max(0.0, min(timeout, soonest))
                ready = mp_connection.wait(list(source_of), timeout=timeout)
                expire_leases()
                if not ready:
                    # Fallback sweep for a process gone without its
                    # sentinel firing (should not happen; cheap to check).
                    for worker_id, process in list(processes.items()):
                        if not process.is_alive():
                            handle_death(worker_id)
                    continue
                for source in ready:
                    worker_id = source_of[source]
                    if worker_id not in processes:
                        continue  # handled earlier in this batch
                    if source is readers.get(worker_id):
                        try:
                            message = source.recv()
                        except (EOFError, OSError):
                            handle_death(worker_id)
                            continue
                        handle_message(worker_id, message)
                    else:  # the process sentinel: the worker exited
                        handle_death(worker_id)
        finally:
            for task_queue in task_queues.values():
                try:
                    task_queue.put(None)
                except (OSError, ValueError):
                    pass
            deadline = time.time() + 5.0
            for process in processes.values():
                process.join(timeout=max(0.0, deadline - time.time()))
                if process.is_alive():
                    process.terminate()
            for reader in readers.values():
                try:
                    reader.close()
                except OSError:
                    pass

        if report.errors:
            raise RuntimeError(
                "distributed run failed: " + "; ".join(report.errors)
            )

        # Quarantined specs get their placeholder; a duplicate hash gets
        # its own copy of the one result.
        results: Dict[str, Result] = {}
        for task_id, (content, spec) in tasks.items():
            if task_id in quarantined_ids:
                results[content] = _quarantined_result(
                    spec, content, report.quarantined[content]
                )
            else:
                results[content] = done[task_id]
        ordered: List[Result] = []
        returned: set = set()
        for content in hashes:
            result = results[content]
            ordered.append(result.copy() if content in returned else result)
            returned.add(content)
        return ordered


__all__ = [
    "DistributedExecutor",
    "DistributedReport",
]
