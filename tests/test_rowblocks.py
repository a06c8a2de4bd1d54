"""Work run beside this process's own in a forked child.

A stacked analysis split into two row blocks, one run by a forked child:
every trial takes the same float operations in any stack, so a split run
must return the whole stack's bytes: solutions, waveforms, per-trial
counts and strategies, and the solver's counters.  A serial sparse DC
whose plain Newton run reaches its stall window starts its fallback
ladders in a forked child: the ladders never read the plain run's
iterate, so the answer, its counts and the solver's counters are those of
the run in one process.  No child may outlive the analysis, whatever the
child or the parent does.
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
from repro.circuits import build_scalability_bench, build_series_chain
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
from repro.spice import engine as engine_module
from repro.spice.engine import AnalysisEngine
from repro.spice.solvers import SparseSolver, scipy_available

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
#: ``ProcessExecutor`` workers twice: as they are, and with the worker
#: rule taken out (argv[1] == "split"), logging the pid that forked each
#: child whose block stood (the child sent its summary).  Every fork of
#: this process counts its OS threads right after it, as Python 3.12+
#: does to warn that the child may deadlock, and the warning is an error
#: in every version.  The workers are spawned: each re-runs the module
#: level, so the patches hold in them too, and only the main process runs
#: the studies.
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
if sys.argv[1] == "split" and __name__ != "__main__":
    _rowblocks._in_worker = lambda: False
if __name__ == "__main__":
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
    script = tmp_path / "executor_workers.py"
    script.write_text(_FORK_SCRIPT.format(src=SRC_DIR, log=str(log)))
    completed = subprocess.run(
        [sys.executable, str(script), "split" if workers_split else "whole"],
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


def ladder_fork(monkeypatch, on: bool) -> None:
    """Two usable CPUs (``on``) or one, so the ladders fork or run here."""
    monkeypatch.setattr(_rowblocks, "_usable_cpus", lambda: 2 if on else 1)


def sparse_dc(circuit, **controls):
    """A serial sparse DC on a fresh backend, with the backend's counters."""
    solver = SparseSolver()
    op = get_engine(circuit).solve_dc(solver=solver, **controls)
    return op, solver.solver_stats()


def assert_same_dc(got, whole):
    (op, stats), (reference, reference_stats) = got, whole
    assert op.solution.tobytes() == reference.solution.tobytes()
    assert op.convergence_info == reference.convergence_info
    assert (op.iterations, op.converged) == (reference.iterations, reference.converged)
    assert np.float64(op.max_residual).tobytes() == np.float64(reference.max_residual).tobytes()
    assert stats == reference_stats


@pytest.mark.skipif(not scipy_available(), reason="needs the scipy optional extra")
class TestLadderBesideThePlainRun:
    @pytest.mark.parametrize(
        "rows, strategy, iterations", [(8, "newton", 230), (14, "gmin-stepping", 286)]
    )
    def test_lattice_dc_matches_the_run_in_one_process(
        self, monkeypatch, forks, rows, strategy, iterations
    ):
        # Row 8 (n=135) converges by plain Newton after the stall window,
        # so its child is cancelled; row 14 (n=399) stalls, and its answer
        # is the child's gmin ladder, 220 of its 286 rounds.
        runs = {}
        for on in (False, True):
            ladder_fork(monkeypatch, on)
            runs[on] = sparse_dc(build_scalability_bench(rows).circuit)
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_dc(runs[True], runs[False])
        info = runs[True][0].convergence_info
        assert (info.strategy, info.iterations, info.factorizations) == (
            strategy, iterations, iterations,
        )
        assert runs[True][1]["factorizations"] == iterations

    def test_a_plain_run_that_converges_in_time_never_forks(self, monkeypatch):
        # The 100-switch chain (n=303) converges in 10 rounds, before the
        # stall window: no fork, no kill, no reap.
        ladder_fork(monkeypatch, True)
        forked = []
        fork = _rowblocks._fork

        def recorded():
            forked.append(None)
            return fork()

        monkeypatch.setattr(_rowblocks, "_fork", recorded)
        op, _ = sparse_dc(build_series_chain(100).circuit)
        assert op.convergence_info.strategy == "newton"
        assert op.iterations < engine_module.NEWTON_STALL_ROUNDS
        assert op.circuit.system_size == 303
        assert forked == []

    @pytest.mark.parametrize(
        "build, max_iterations, strategy, iterations",
        [("weak_bias_chain", 10, "source-stepping", 81), ("runaway_node", 20, "failed", 240)],
    )
    def test_every_ladder_outcome_comes_back(
        self, monkeypatch, forks, build, max_iterations, strategy, iterations
    ):
        # The ladder oracles' small circuits, with the size floor taken
        # out.  Their plain runs end at their budget; with the stall window
        # at the budget (a run cannot stall sooner) the ladders fork at
        # the plain run's last round, and the story is the default one.
        import test_solvers

        monkeypatch.setattr(engine_module, "_LADDER_FORK_SIZE", 0)
        monkeypatch.setattr(engine_module, "NEWTON_STALL_ROUNDS", max_iterations)
        runs = {}
        for on in (False, True):
            ladder_fork(monkeypatch, on)
            runs[on] = sparse_dc(getattr(test_solvers, build)(), max_iterations=max_iterations)
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_dc(runs[True], runs[False])
        op = runs[True][0]
        assert (op.convergence_info.strategy, op.iterations) == (strategy, iterations)
        assert op.converged == (strategy != "failed")

    def test_a_killed_ladder_child_is_rerun_here(self, monkeypatch, forks):
        ladder_fork(monkeypatch, False)
        whole = sparse_dc(build_scalability_bench(14).circuit)
        ladder_fork(monkeypatch, True)
        parent = os.getpid()
        row = AnalysisEngine._newton_row
        rungs = []

        def dies_in_the_child(self, *args, **kwargs):
            if os.getpid() != parent:
                rungs.append(None)
                if len(rungs) == 3:  # mid-ladder
                    os.kill(os.getpid(), signal.SIGKILL)
            return row(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisEngine, "_newton_row", dies_in_the_child)
        ladders = []
        run_ladders = AnalysisEngine._run_ladders

        def recorded(self, *args, **kwargs):
            ladders.append(os.getpid())
            return run_ladders(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisEngine, "_run_ladders", recorded)
        got = sparse_dc(build_scalability_bench(14).circuit)
        assert ladders == [parent]
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_dc(got, whole)

    def test_a_plain_run_that_raises_kills_and_reaps_the_child(self):
        # In a fresh process, whose only child can be the ladders' (a test
        # process may hold other children, multiprocessing's resource
        # tracker among them).
        completed = subprocess.run(
            [
                sys.executable, "-c",
                _RAISING_PLAIN_RUN_SCRIPT.format(src=SRC_DIR, tests=os.path.dirname(__file__)),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_a_second_thread_means_no_fork(self, monkeypatch, forks):
        import test_solvers

        ladder_fork(monkeypatch, True)
        monkeypatch.setattr(engine_module, "_LADDER_FORK_SIZE", 0)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            alone = sparse_dc(test_solvers.runaway_node(), max_iterations=20)
        finally:
            release.set()
            thread.join()
        assert forks == []
        forked = sparse_dc(test_solvers.runaway_node(), max_iterations=20)
        assert len(forks) == 1
        assert_reaped(forks)
        assert_same_dc(forked, alone)


#: The ladder child sleeps instead of running its ladders, and the plain
#: run raises right after the fork: the error reaches the caller at once,
#: and no child process remains.
_RAISING_PLAIN_RUN_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_solvers import runaway_node
from repro.spice import SparseSolver, _rowblocks, get_engine
from repro.spice import engine as engine_module
from repro.spice.engine import AnalysisEngine

_rowblocks._usable_cpus = lambda: 2
engine_module._LADDER_FORK_SIZE = 0
AnalysisEngine._ladder_outcome = lambda self, *args: time.sleep(120)
row = AnalysisEngine._newton_row
fork = os.fork
forks = []


def recorded():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


def raises_after_the_fork(self, *args, stall_hook=None, **kwargs):
    def hook():
        stall_hook()
        raise RuntimeError("the plain run failed")

    return row(self, *args, stall_hook=stall_hook and hook, **kwargs)


os.fork = recorded
AnalysisEngine._newton_row = raises_after_the_fork
start = time.monotonic()
try:
    get_engine(runaway_node()).solve_dc(solver=SparseSolver(), max_iterations=20)
except RuntimeError as error:
    assert str(error) == "the plain run failed", error
else:
    sys.exit("no error")
assert time.monotonic() - start < 60.0
assert len(forks) == 1, forks
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("ok")
else:
    sys.exit("a child process remains")
"""
