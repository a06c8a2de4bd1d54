"""Work run beside this process's own, in a forked child.

One primitive, two users.  :func:`start` forks a child that runs a
callable and sends back its picklable result; the parent goes on with its
own work, then either *collects* the child (waits for it and reaps it: its
result, or ``None`` on any failure, so the caller runs the work itself) or
*cancels* it (kills and reaps it, for work it no longer needs).  Large
outputs do not cross the pipe: the child writes them straight into a
shared anonymous mapping (:func:`shared`) that the parent allocated before
the fork.  Processes, not threads: the assembly holds the GIL, so two
threads could overlap only the LAPACK and SuperLU calls.

* **Row blocks.**  The trials of a stacked analysis never read each
  other's rows: each trial takes the same float operations whether it
  runs in a stack of 128, a stack of 64 or alone.  So a stack with enough
  work (:func:`split_point`) is cut into two contiguous row blocks that
  run at once on two CPUs: :func:`run_blocks` forks one child before the
  first Newton round, the child runs rows ``[0, half)`` and the parent
  rows ``[half, rows)``, each through the unchanged driver, and each
  writes its rows of the solutions or waveforms in place.
* **The DC fallback ladder.**  A serial sparse DC solve whose plain Newton
  run reaches its stall window unconverged starts the fallback ladders in
  a child (the ladders restart from the zero solution and never read the
  plain run's iterate), and the plain run goes on here.  If the plain run
  converges after all, the child is cancelled; if it fails, the child's
  ladder outcome is collected (see ``AnalysisEngine._solve_dc_stack``).

The child ends with ``os._exit`` whatever happens, so it never runs the
parent's exit handlers or flushes stdio buffers it inherited, and a
warning it would show fails it instead.  A failed, dead or silent child
is never trusted: its work runs again in the calling process, so a
warning or an error shows there exactly as it would without the fork.
Every child is collected or cancelled before the analysis that forked it
returns or raises.  A fork that leaves another OS thread running in this
process is undone: the child is killed at once and the work runs here.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import sys
import threading
import warnings
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Each block holds at least this many trials (a 120-step march of the
#: n=33 XOR3 bench took 0.86 of its whole time split at 16 trials).
_MIN_BLOCK_ROWS = 8
#: Least work worth a fork, in ``rows * n * rounds`` (:func:`split_point`).
#: The fork, its copy-on-write faults and the reap cost about 8 ms in a
#: process the size of the XOR3 variability study (2-CPU host).  On that
#: n=33 bench, marches with no DC warm start broke even near ``rows * n *
#: steps`` = 40 000 (split/whole 128 trials x 10 steps 0.85, 64 x 20 0.91,
#: 32 x 40 0.97; 32 x 20 1.47), and a DC stack whose every trial
#: converged within 16 rounds from a warm guess broke even between 64
#: trials (1.07) and 128 (0.73), 34 000 to 68 000 at 16 rounds.  The
#: floor sits at 1.5 times the marches' break-even: a DC stack of that
#: bench splits from 114 trials.
_MIN_WORK = 60_000
#: Dense systems this large never split.  From 100 unknowns (``n * n``
#: of 10 000) OpenBLAS factors each system on its thread pool, and two
#: processes' pools spin against each other on the CPUs the blocks share:
#: split/whole on a 2-CPU host, series-chain marches of 32 trials, 5 and
#: 20 steps: 0.67 and 0.75 at n=99, 4.17 and 1.62 at n=105, 52 and 2.26
#: at n=123 (0.61 and 0.77 there with BLAS held to one thread).  Sparse
#: stacks factor through SuperLU and split at any size (0.61 and 0.56 at
#: n=423).
_DENSE_SIZE_LIMIT = 100
#: The rounds a DC stack is counted at.  How many it runs is known only
#: once it has run; a hard stack runs hundreds, and 16 is the easy stack
#: above, so an easy stack pays for its fork too.
_DC_ROUNDS = 16

#: True in a forked child, and in the parent while it runs its row block:
#: nothing started there forks again.
_in_block = False


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _in_worker() -> bool:
    """Whether this process is a ``multiprocessing`` child (an executor's
    worker); a process that never imported ``multiprocessing`` is not."""
    process = sys.modules.get("multiprocessing.process")
    return process is not None and process.parent_process() is not None


def can_fork() -> bool:
    """Whether this process may run work beside its own in a forked child.

    Not with one usable CPU, without ``os.fork`` (only Linux forks here),
    with a second Python thread alive (a fork copies only the calling
    thread, whatever locks the others hold), inside a child or a row
    block, or in a ``multiprocessing`` worker, whose executor already
    spreads its specs over the CPUs (two ``ProcessExecutor`` workers on a
    2-CPU host ran four 128-trial XOR3 studies about 26 % slower with the
    row-block split).
    """
    return (
        not _in_block
        and sys.platform.startswith("linux")
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and _usable_cpus() >= 2
        and not _in_worker()
    )


def split_point(rows: int, size: int, steps: int = 0, dense: bool = False) -> int:
    """The child's row count for a stack of ``rows`` ``size``-unknown systems.

    ``steps`` is a march's step count (zero: a DC stack); ``dense`` says
    a dense backend solves the stack.  The work is ``rows * size`` times
    the rounds sure to run: a march counts one a step and leaves out its
    DC warm start, which it may not run (``use_initial_conditions``) and
    which an easy circuit ends in a few rounds; a DC stack counts
    :data:`_DC_ROUNDS`.  Zero means the stack runs whole: work under
    :data:`_MIN_WORK`, a block under :data:`_MIN_BLOCK_ROWS` trials, dense
    systems of :data:`_DENSE_SIZE_LIMIT` unknowns or more, or a process
    that may not fork (:func:`can_fork`).  Otherwise two blocks, whatever
    the CPU count: more were never measured.
    """
    if (
        rows < 2 * _MIN_BLOCK_ROWS
        or rows * size * (steps or _DC_ROUNDS) < _MIN_WORK
        or (dense and size >= _DENSE_SIZE_LIMIT)
        or not can_fork()
    ):
        return 0
    return rows // 2


def shared(shape: Tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array in an anonymous mapping a forked child writes through."""
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count, 1) * 8)  # MAP_SHARED | MAP_ANONYMOUS
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _write_all(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        view = view[os.write(fd, view):]


def _unpickle(payload: bytes) -> Any:
    """The child's result, or ``None`` for a payload cut short."""
    try:
        return pickle.loads(payload)
    except Exception:
        return None


def _kill(pid: int) -> None:
    """Kill and reap a child, unless something else has reaped it."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except OSError:
        pass


def _os_threads() -> int:
    """The OS threads this process runs, Python's and native ones."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # pragma: no cover - no procfs
        return threading.active_count()


def _fork() -> int:
    """``os.fork``, or ``-1`` once the fork is undone: a native thread ran.

    Python 3.12+ warns after a fork that left another OS thread running in
    this process, since the child may find a lock that thread held taken
    for good.  NumPy's OpenBLAS threads never count: its fork handler
    shuts its pool down before the fork (the pool starts again at the next
    BLAS call), so right after the fork this process runs one OS thread.
    Another library's native thread is counted here in every Python
    version, and then the child is killed and reaped at once and the work
    runs here.  The warning itself is ignored, as the count stands for it:
    turned into an error, it would raise once the child already exists.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=".*multi-threaded", category=DeprecationWarning
        )
        pid = os.fork()
    if pid and _os_threads() != 1:
        _kill(pid)
        return -1
    return pid


class _WarningToShow(BaseException):
    """Raised in a forked child where a warning would be shown."""


def _refuse_to_show(*args, **kwargs) -> None:
    raise _WarningToShow


def _run_child(work: Callable[[], Any], fd: int) -> None:
    """The forked child: run ``work``, send its result, ``os._exit``."""
    global _in_block
    status = 1
    try:
        _in_block = True
        warnings.showwarning = _refuse_to_show
        result = work()
        _write_all(fd, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


class Child:
    """A forked child running a callable; collect or cancel it, once."""

    __slots__ = ("pid", "_read_fd")

    def __init__(self, pid: int, read_fd: int):
        self.pid = pid
        self._read_fd = read_fd

    def collect(self) -> Any:
        """Wait for the child and reap it; its result, or ``None`` when it
        failed, died or sent nothing."""
        reaped = False
        try:
            payload = _read_all(self._read_fd)
            try:
                sent = os.waitpid(self.pid, 0)[1] == 0 and payload
            except ChildProcessError:
                # Reaped elsewhere (SIGCHLD ignored): only a whole result unpickles.
                sent = payload
            reaped = True
        finally:
            os.close(self._read_fd)
            if not reaped:
                _kill(self.pid)
        return _unpickle(payload) if sent else None

    def cancel(self) -> None:
        """Kill and reap the child, whatever it was doing."""
        os.close(self._read_fd)
        _kill(self.pid)


def start(work: Callable[[], Any]) -> Optional[Child]:
    """Fork a child that runs ``work()`` and sends back its picklable result.

    Returns the :class:`Child` to collect or cancel, or ``None`` when the
    fork was undone (:func:`_fork`) and no child runs.  Call it only where
    :func:`can_fork` holds.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = _fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        os.close(read_fd)
        _run_child(work, write_fd)
    os.close(write_fd)
    if pid < 0:
        os.close(read_fd)
        return None
    return Child(pid, read_fd)


def _run_here(block, rows: slice, out: np.ndarray) -> Any:
    """Run a split's block in this process, as a block (no nested split)."""
    global _in_block
    _in_block = True
    try:
        return block(rows, out[rows])
    finally:
        _in_block = False


def run_blocks(
    rows: int,
    half: int,
    shape: Tuple[int, ...],
    block: Callable[[slice, np.ndarray], Any],
    adopt: Callable[[Any], None],
) -> Tuple[np.ndarray, List[Any]]:
    """Run ``block`` over a stack of ``rows`` trials, split at ``half``.

    ``block(rows, out)`` runs the trials of the slice ``rows`` and writes
    their rows of the output (``out`` is the slice's rows of a ``(rows,
    *shape)`` float64 array, every element of which the block must
    write), returning a picklable summary.  ``half`` is
    :func:`split_point`'s answer: zero runs one block, here; otherwise a
    forked child runs rows ``[0, half)`` while this process runs
    ``[half, rows)``.  ``adopt(summary)`` is called on the child's summary
    once it has arrived, for what the block left behind in the child's
    process (its solver counters), and not when the block ran here.

    Returns the output and the block summaries in row order.
    """
    if not half:
        out = np.zeros((rows, *shape))
        return out, [block(slice(0, rows), out)]
    out = shared((rows, *shape))
    first, second = slice(0, half), slice(half, rows)
    child = start(lambda: block(first, out[first]))
    if child is None:
        return out, [_run_here(block, slice(0, rows), out)]
    try:
        summary = _run_here(block, second, out)
    except BaseException:
        child.cancel()
        raise
    result = child.collect()
    if result is None:
        # The child failed, died or sent nothing: its block runs here.
        result = _run_here(block, first, out)
    else:
        adopt(result)
    return out, [result, summary]
