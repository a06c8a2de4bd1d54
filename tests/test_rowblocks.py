"""A stacked analysis split into two row blocks, one run by a forked child.

Every trial takes the same float operations in any stack, so a split run
must return the whole stack's bytes: solutions, waveforms, per-trial
counts and strategies, and the solver's counters.  No child may outlive
the analysis, whatever the child or the parent's block does.
"""

import collections
import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.api import Session
from repro.experiments.variability_xor3 import (
    DEFAULT_SIGMA_BETA,
    DEFAULT_SIGMA_VTH_V,
    variability_circuit_spec,
)
from repro.spice import (
    BatchedDenseSolver,
    BatchedSparseSolver,
    Gaussian,
    MonteCarloEngine,
    _rowblocks,
    get_engine,
)
from repro.spice.engine import AnalysisEngine
from repro.spice.solvers import scipy_available

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "fork"),
    reason="stacked analyses split across a forked child on Linux only",
)

#: The seed-0 128-trial variability DC (``TestVariabilityDCGolden``).
VARIABILITY_STRATEGIES = {
    "batched-newton": 88,
    "gmin-stepping": 29,
    "source-stepping": 4,
    "failed": 7,
}


pytestmark = [pytestmark, pytest.mark.usefixtures("single_threaded")]


def split(monkeypatch, on: bool) -> None:
    """Two usable CPUs and no work floor (``on``), or one CPU (off)."""
    monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(_rowblocks, "_MIN_WORK", 0)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked in this process."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="module")
def variability():
    bench = Session(store=None).build_circuit(variability_circuit_spec())
    montecarlo = MonteCarloEngine(
        bench.circuit,
        {
            "mos_vth": Gaussian(sigma=DEFAULT_SIGMA_VTH_V),
            "mos_beta": Gaussian(sigma=DEFAULT_SIGMA_BETA, relative=True),
        },
        seed=0,
    )
    return bench, montecarlo


def assert_same_points(split_points, whole):
    for name in ("solutions", "iterations", "converged", "max_residuals"):
        assert getattr(split_points, name).tobytes() == getattr(whole, name).tobytes(), name
    assert split_points.strategies == whole.strategies
    assert split_points.factorizations == whole.factorizations
    assert split_points.factorization_reuses == whole.factorization_reuses


def assert_same_marches(split_run, whole):
    for name in ("time_s", "solutions", "newton_iterations", "converged", "max_residuals"):
        assert getattr(split_run, name).tobytes() == getattr(whole, name).tobytes(), name
    assert split_run.factorizations == whole.factorizations
    assert split_run.factorization_reuses == whole.factorization_reuses


class TestSplitPoint:
    def test_small_stacks_never_split(self, monkeypatch):
        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 2)
        # A march counts its steps only: the XOR3 variability march (n=33,
        # 120 steps) splits; 128 trials x 5 steps and 32 x 20 (1.24x and
        # 1.47x slower split) do not, with or without a DC warm start.  A DC stack counts 16
        # rounds: 114 trials at n=33.  The 4-unknown divider of the
        # stacked-failure tests never splits, nor does a stack of under 16
        # trials, whatever its work.
        assert _rowblocks.split_point(128, 33, 120) == 64
        assert _rowblocks.split_point(128, 33, 5) == 0
        assert _rowblocks.split_point(32, 33, 20) == 0
        assert _rowblocks.split_point(32, 33, 57) == 16
        assert _rowblocks.split_point(114, 33) == 57
        assert _rowblocks.split_point(113, 33) == 0
        assert _rowblocks.split_point(64, 4) == 0
        assert _rowblocks.split_point(15, 1000, 1000) == 0
        assert _rowblocks.split_point(16, 1000, 1000) == 8

    def test_dense_systems_of_100_unknowns_never_split(self, monkeypatch):
        # OpenBLAS threads their factorizations; sparse stacks split.
        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 2)
        assert _rowblocks.split_point(32, 99, 20, dense=True) == 16
        assert _rowblocks.split_point(32, 100, 20, dense=True) == 0
        assert _rowblocks.split_point(32, 423, 5, dense=True) == 0
        assert _rowblocks.split_point(32, 423, 5) == 16

    def test_one_cpu_a_block_a_worker_or_a_second_thread_never_splits(self, monkeypatch):
        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 1)
        assert _rowblocks.split_point(128, 33, 120) == 0
        monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 8)
        assert _rowblocks.split_point(128, 33, 120) == 64  # two blocks, not eight
        monkeypatch.setattr(_rowblocks, "_in_block", True)
        assert _rowblocks.split_point(128, 33, 120) == 0
        monkeypatch.setattr(_rowblocks, "_in_block", False)
        assert not _rowblocks._in_worker()
        in_worker = _rowblocks._in_worker
        monkeypatch.setattr(_rowblocks, "_in_worker", lambda: True)
        assert _rowblocks.split_point(128, 33, 120) == 0
        monkeypatch.setattr(_rowblocks, "_in_worker", in_worker)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _rowblocks.split_point(128, 33, 120) == 0
        finally:
            release.set()
            thread.join()
        assert _rowblocks.split_point(128, 33, 120) == 64


class TestRunBlocks:
    @staticmethod
    def block(warn_in):
        def run(rows, out):
            if rows.start in warn_in:
                warnings.warn(f"rows from {rows.start}", RuntimeWarning)
            out[...] = np.arange(rows.start, rows.stop)[:, np.newaxis]
            return (rows.start, os.getpid())

        return run

    def test_the_child_runs_the_first_block(self, forks):
        adopted = []
        out, summaries = _rowblocks.run_blocks(32, 12, (3,), self.block(()), adopted.append)
        assert out.tolist() == [[row] * 3 for row in range(32)]
        assert len(forks) == 1
        assert_reaped(forks)
        assert summaries == [(0, forks[0]), (12, os.getpid())] == adopted + summaries[1:]

    def test_a_warning_the_child_would_show_shows_here(self, forks):
        adopted = []
        with pytest.warns(RuntimeWarning, match="rows from 0"):
            out, summaries = _rowblocks.run_blocks(
                32, 16, (1,), self.block((0,)), adopted.append
            )
        assert out[:, 0].tolist() == list(range(32))
        assert summaries == [(0, os.getpid()), (16, os.getpid())] and adopted == []
        assert_reaped(forks)
        # An ignored warning is not shown, so it fails no child.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _rowblocks.run_blocks(32, 16, (1,), self.block((0,)), adopted.append)
        assert adopted == [(0, forks[1])]
        assert_reaped(forks)


    def test_a_thread_alive_after_the_fork_undoes_it(self, forks, monkeypatch):
        # Another OS thread outlived the fork: the child is killed at once
        # and the whole stack runs here, as one block.
        monkeypatch.setattr(_rowblocks, "_os_threads", lambda: 2)
        adopted = []
        out, summaries = _rowblocks.run_blocks(32, 16, (1,), self.block(()), adopted.append)
        assert out[:, 0].tolist() == list(range(32))
        assert summaries == [(0, os.getpid())] and adopted == []
        assert len(forks) == 1
        assert_reaped(forks)

    def test_a_fork_warning_made_an_error_leaves_no_child(self, forks, monkeypatch):
        # Python 3.12+ warns in the parent once the child exists; raised,
        # that warning would leave the child without a pid to reap.
        fork = os.fork

        def warns():
            pid = fork()
            if pid:
                warnings.warn(
                    "This process is multi-threaded, use of fork() may lead to "
                    "deadlocks in the child.",
                    DeprecationWarning,
                )
            return pid

        monkeypatch.setattr(os, "fork", warns)
        adopted = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, summaries = _rowblocks.run_blocks(
                32, 16, (1,), self.block(()), adopted.append
            )
        assert out[:, 0].tolist() == list(range(32))
        assert summaries == [(0, forks[0]), (16, os.getpid())] == adopted + summaries[1:]
        assert_reaped(forks)


#: Splits a stack with NumPy's BLAS at its default thread count, its pool
#: started, and every DeprecationWarning an error.  OpenBLAS shuts its
#: pool down for a fork, so the fork leaves one OS thread and the child's
#: block stands.  Prints the OS threads before the fork.
_BLAS_THREADS_SCRIPT = """
import os, sys, warnings
sys.path.insert(0, {src!r})
warnings.simplefilter("error", DeprecationWarning)
import numpy as np
from repro.spice import _rowblocks

_rowblocks._usable_cpus = lambda: 2
np.linalg.solve(np.eye(300) + np.ones((300, 300)), np.ones(300))


def block(rows, out):
    out[...] = rows.start
    return os.getpid()


threads = _rowblocks._os_threads()
out, (child, parent) = _rowblocks.run_blocks(32, 16, (1,), block, lambda summary: None)
assert parent == os.getpid() != child, (parent, child)
assert out[:16].sum() == 0 and (out[16:] == 16).all()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(threads)
else:
    sys.exit("a child process remains")
"""


def test_blas_threads_do_not_undo_the_fork():
    env = {
        name: value for name, value in os.environ.items()
        if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    completed = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT.format(src=SRC_DIR)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    # On two or more CPUs NumPy's OpenBLAS runs a pool thread beside this one.
    if len(os.sched_getaffinity(0)) > 1:
        assert int(completed.stdout) > 1


class TestSplitMatchesWhole:
    def test_variability_dc(self, variability, monkeypatch, forks):
        bench, montecarlo = variability
        engine = get_engine(bench.circuit)
        stacks = montecarlo.sample_stacked_overlays(128)
        runs = {}
        for on in (False, True):
            split(monkeypatch, on)
            solver = BatchedDenseSolver()
            runs[on] = engine.solve_dc_batched(stacks, refresh=False, solver=solver)
            runs[on, "stats"] = solver.solver_stats()
        assert len(forks) == 1
        assert_reaped(forks)
        assert collections.Counter(runs[True].strategies) == VARIABILITY_STRATEGIES
        assert_same_points(runs[True], runs[False])
        assert runs[True, "stats"] == runs[False, "stats"]
        assert runs[True, "stats"]["factorizations"] == runs[True].factorizations

    def test_variability_transient(self, variability, monkeypatch, forks):
        bench, montecarlo = variability
        stop = bench.input_sequence.total_duration_s
        runs = {}
        for on in (False, True):
            split(monkeypatch, on)
            solver = BatchedDenseSolver()
            runs[on] = montecarlo.run_batched_transient(128, stop, 1e-9, solver=solver)
            runs[on, "stats"] = solver.solver_stats()
        # One fork: the child runs its rows' DC warm start and march.
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_marches(runs[True], runs[False])
        assert runs[True, "stats"] == runs[False, "stats"]

    @pytest.mark.skipif(not scipy_available(), reason="needs the scipy optional extra")
    def test_sparse_batched_modified_newton_merges_counts(
        self, variability, monkeypatch, forks
    ):
        # Per-trial LU reuse: each block's trials keep their own frozen
        # factorizations, and the child's factorizations and reuses land
        # on this process's solver.
        bench, montecarlo = variability
        stacks = montecarlo.sample_stacked_overlays(32)
        engine = get_engine(bench.circuit)
        runs = {}
        for on in (False, True):
            split(monkeypatch, on)
            solver = BatchedSparseSolver()
            runs[on] = engine.solve_transient_batched(
                12e-9, 1e-9, params=stacks, refresh=False, solver=solver, newton="reuse"
            )
            runs[on, "stats"] = solver.solver_stats()
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_marches(runs[True], runs[False])
        assert runs[True].factorization_reuses > 0
        assert runs[True, "stats"] == runs[False, "stats"] == {
            "factorizations": runs[True].factorizations,
            "factorization_reuses": runs[True].factorization_reuses,
        }

    def test_a_killed_child_is_recomputed_here(self, variability, monkeypatch, forks):
        bench, montecarlo = variability
        stacks = montecarlo.sample_stacked_overlays(32)
        engine = get_engine(bench.circuit)
        split(monkeypatch, False)
        whole_solver = BatchedDenseSolver()
        whole = engine.solve_transient_batched(
            20e-9, 1e-9, params=stacks, refresh=False, solver=whole_solver
        )
        split(monkeypatch, True)
        parent = os.getpid()
        newton = AnalysisEngine._newton_batched
        rounds = []

        def dies_in_the_child(self, *args, **kwargs):
            rounds.append(None)
            if os.getpid() != parent and len(rounds) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return newton(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisEngine, "_newton_batched", dies_in_the_child)
        blocks = []
        run_here = _rowblocks._run_here

        def recorded(block, rows, out):
            blocks.append((rows.start, rows.stop))
            return run_here(block, rows, out)

        monkeypatch.setattr(_rowblocks, "_run_here", recorded)
        solver = BatchedDenseSolver()
        got = engine.solve_transient_batched(
            20e-9, 1e-9, params=stacks, refresh=False, solver=solver
        )
        # The parent's block, then the dead child's, run here.
        assert blocks == [(16, 32), (0, 16)]
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_marches(got, whole)
        assert solver.solver_stats() == whole_solver.solver_stats()

    def test_a_second_thread_means_no_fork(self, variability, monkeypatch, forks):
        bench, montecarlo = variability
        stacks = montecarlo.sample_stacked_overlays(32)
        engine = get_engine(bench.circuit)
        split(monkeypatch, True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            engine.solve_dc_batched(stacks, refresh=False)
        finally:
            release.set()
            thread.join()
        assert forks == []
        engine.solve_dc_batched(stacks, refresh=False)
        assert len(forks) == 1
        assert_reaped(forks)


#: The parent's block raises while the child's block still runs (it
#: sleeps): the error propagates at once and no child process remains.
_RAISING_PARENT_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
import numpy as np
from repro.spice import Circuit, Resistor, VoltageSource, _rowblocks, get_engine
from repro.spice.engine import AnalysisEngine

_rowblocks._usable_cpus = lambda: 2
_rowblocks._MIN_WORK = 0
circuit = Circuit("divider")
VoltageSource(circuit, "vin", "in", "0", 1.0)
Resistor(circuit, "r1", "in", "mid", 1e3)
Resistor(circuit, "r2", "mid", "0", 3e3)
parent = os.getpid()
stack = AnalysisEngine._solve_dc_stack


def parent_raises(self, *args, **kwargs):
    if os.getpid() != parent:
        time.sleep(120)
    raise RuntimeError("the parent's block failed")


AnalysisEngine._solve_dc_stack = parent_raises
start = time.monotonic()
try:
    get_engine(circuit).solve_dc_batched({{"resistor_ohm": np.full((32, 2), 2e3)}})
except RuntimeError as error:
    assert str(error) == "the parent's block failed", error
else:
    sys.exit("no error")
assert time.monotonic() - start < 60.0
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("ok")
else:
    sys.exit("a child process remains")
"""


def test_an_error_in_the_parent_block_leaves_no_child():
    completed = subprocess.run(
        [sys.executable, "-c", _RAISING_PARENT_SCRIPT.format(src=SRC_DIR)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


#: Runs two batched Monte-Carlo studies here, then in two
#: ``ProcessExecutor`` workers (forked or spawned) twice: as they are, and
#: with the worker rule taken out (argv[1] == "split"), logging the pid
#: that forked each child whose block stood (the child sent its summary).
#: Every fork of this process counts its OS threads right after it, as
#: Python 3.12+ does to warn that the child may deadlock, and the warning
#: is an error in every version.
_FORK_SCRIPT = """
import hashlib, os, sys, warnings
sys.path.insert(0, {src!r})
warnings.filterwarnings("error", message=".*multi-threaded.*fork", category=DeprecationWarning)
fork = os.fork


def counted_fork():
    pid = fork()
    if pid and len(os.listdir("/proc/self/task")) > 1:
        warnings.warn(
            f"This process (pid={{os.getpid()}}) is multi-threaded, use of fork() "
            "may lead to deadlocks in the child.",
            DeprecationWarning,
        )
    return pid


os.fork = counted_fork
from repro.api import CircuitSpec, MonteCarlo, ProcessExecutor, Session, Transient
from repro.spice import Gaussian, _rowblocks

_rowblocks._usable_cpus = lambda: 2
_rowblocks._MIN_WORK = 0
log = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
write_all = _rowblocks._write_all


def logged(fd, payload):
    write_all(fd, payload)
    os.write(log, f"{{os.getppid()}}\\n".encode())


_rowblocks._write_all = logged
bench = CircuitSpec(
    "repro.experiments.variability_xor3:build_variability_bench",
    params={{"step_duration_s": 10e-9}},
)
specs = [
    MonteCarlo(
        base=Transient(circuit=bench, timestep_s=1e-9),
        perturbations={{"mos_vth": Gaussian(sigma=0.03)}},
        trials=40, seed=seed, mode="batched", metric_node="out",
    )
    for seed in (1, 2)
]
serial = Session(store=None).run_many(specs)
digest = lambda study: [hashlib.sha256(r.to_json().encode()).hexdigest() for r in study]
if sys.argv[1] == "split":
    _rowblocks._in_worker = lambda: False
pooled = Session(store=None).run_many(specs, executor=ProcessExecutor(workers=2))
assert digest(pooled) == digest(serial)
print(os.getpid())
"""


@pytest.mark.parametrize("workers_split", [False, True])
def test_executor_workers(tmp_path, workers_split):
    # A worker's executor already spreads the specs over the CPUs, so a
    # worker runs its stacks whole; forced to split, it forks with no
    # other thread alive.  The first run holds BLAS to one thread; the
    # forced one leaves it at its default, its pool's threads alive
    # before each fork.
    log = tmp_path / "splits.log"
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {name: value for name, value in os.environ.items() if name not in blas}
    if not workers_split:
        env.update(dict.fromkeys(blas, "1"))
    completed = subprocess.run(
        [
            sys.executable, "-c", _FORK_SCRIPT.format(src=SRC_DIR, log=str(log)),
            "split" if workers_split else "whole",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    main = completed.stdout.strip()
    splits = collections.Counter(log.read_text().split())
    # Each study's transient splits its 40 trials in two here (and in a
    # worker when forced); nothing inside a block splits again.
    assert splits[main] == 2
    assert sum(splits.values()) - splits[main] == (2 if workers_split else 0)
