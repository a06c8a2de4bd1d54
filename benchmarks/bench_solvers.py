"""Benchmark: dense/sparse linear-solver crossover vs MNA matrix size.

The solver seam's claim is that the dense LAPACK backend is right for the
paper-scale circuits while the sparse SuperLU backend takes over on large
lattices.  This benchmark sweeps size-parameterized identity-lattice
circuits (:func:`repro.circuits.build_scalability_bench`), records for each
size the raw per-solve time of both backends on the operating-point
Jacobian plus the end-to-end warm DC solve time, and reports the crossover
size where sparse first beats dense.

Two batched cases extend the sweep to stacked Monte-Carlo solves:

* ``test_sparse_batched_crossover`` races the dense-batched path
  (``(trials, n, n)`` LAPACK stacks) against the sparse-batched path
  (``(trials, nnz)`` CSC stacks over one shared structure) on mid-size
  lattices and records the measured ``batched_crossover_size`` (the
  ``solver="auto"`` policy keeps its fixed default crossover; this
  measurement is what checks it).
* ``test_large_lattice_sparse_batched`` runs the headline 10k-unknown,
  128-trial batched DC study end to end through the sparse-batched
  backend, with ``tracemalloc`` peak-memory accounting against the
  analytic dense-stack footprint (``trials * n^2 * 8`` bytes — too large
  to allocate, which is the point).

Run with ``pytest benchmarks/bench_solvers.py -s``.  The figures land in
``BENCH_solvers.json`` when ``BENCH_JSON_DIR`` is set (the CI
perf-trajectory artifact).  Environment knobs: ``SOLVER_BENCH_GRIDS`` and
``SOLVER_BENCH_BATCH_GRIDS`` (comma-separated grid edge lengths),
``SOLVER_BENCH_TRIALS`` (batched-crossover trial count),
``SOLVER_BENCH_LARGE_UNKNOWNS`` / ``SOLVER_BENCH_LARGE_TRIALS`` /
``SOLVER_BENCH_LARGE_SIGMA`` (large-study scale), and the CI floors
``SOLVERS_SPARSE_BATCHED_MIN_SPEEDUP`` / ``SOLVERS_REUSE_MIN_SPEEDUP``
(both default to 0 so unconstrained local runs only record).
``test_factorization_reuse_speedup`` extends the stacked study with the
``newton="reuse"`` modified-Newton path.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from _bench_utils import report, write_bench_json

from repro.circuits import build_scalability_bench, scalability_grid_for_unknowns
from repro.spice.engine import get_engine
from repro.spice.montecarlo import Gaussian, MonteCarloEngine
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import (
    DenseSolver,
    SparseSolver,
    scipy_available,
)

#: Grid edge lengths of the identity-lattice sweep (n x n switches each).
GRIDS = tuple(
    int(n) for n in os.environ.get("SOLVER_BENCH_GRIDS", "4,8,12").split(",")
)

#: Grid edge lengths of the batched (Monte-Carlo stack) sweep.
BATCH_GRIDS = tuple(
    int(n) for n in os.environ.get("SOLVER_BENCH_BATCH_GRIDS", "6,10,14").split(",")
)

#: Trials per batched-crossover measurement.
BATCH_TRIALS = int(os.environ.get("SOLVER_BENCH_TRIALS", "128"))

#: Scale of the headline large-lattice study.
LARGE_UNKNOWNS = int(os.environ.get("SOLVER_BENCH_LARGE_UNKNOWNS", "10000"))
LARGE_TRIALS = int(os.environ.get("SOLVER_BENCH_LARGE_TRIALS", "128"))
LARGE_SIGMA = float(os.environ.get("SOLVER_BENCH_LARGE_SIGMA", "0.0005"))

#: Hard floor on the sparse-batched speedup (CI sets this; 0 = record only).
MIN_SPEEDUP = float(os.environ.get("SOLVERS_SPARSE_BATCHED_MIN_SPEEDUP", "0"))

#: Hard floor on the ``newton="reuse"`` speedup over full Newton (CI sets
#: this; 0 = record only).
REUSE_MIN_SPEEDUP = float(os.environ.get("SOLVERS_REUSE_MIN_SPEEDUP", "0"))


def _best_solve_s(solver, matrix, rhs, rounds=5):
    """Best-of-rounds per-solve time of one backend on a fixed system."""
    reps = 100 if matrix.shape[0] < 150 else 20
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            solver.solve(matrix, rhs)
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def _best_dc_solve_s(engine, solution, solver_name, rounds=3):
    """Best-of-rounds warm-started end-to-end DC solve time."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        op = engine.solve_dc(initial_guess=solution, refresh=False, solver=solver_name)
        best = min(best, time.perf_counter() - start)
        assert op.converged
    return best


@pytest.mark.skipif(not scipy_available(), reason="sparse backend needs scipy")
def test_dense_sparse_crossover(benchmark, switch_model):
    rows = []
    for grid in GRIDS:
        bench = build_scalability_bench(grid, model=switch_model)
        engine = get_engine(bench.circuit)
        dense_op = engine.solve_dc(solver="dense")
        sparse_op = engine.solve_dc(solver="sparse")
        assert dense_op.converged and sparse_op.converged
        # Backend parity on the full unknown vector, size for size.
        assert np.allclose(dense_op.solution, sparse_op.solution, rtol=1e-9, atol=1e-9)

        matrix, rhs = engine.compiled.assemble(
            AnalysisState(solution=dense_op.solution, gmin=1e-9)
        )
        dense = DenseSolver()
        sparse = SparseSolver()
        sparse.bind(engine.compiled)
        rows.append(
            {
                "grid": grid,
                "system_size": bench.circuit.system_size,
                "dense_solve_us": _best_solve_s(dense, matrix, rhs) * 1e6,
                "sparse_solve_us": _best_solve_s(sparse, matrix, rhs) * 1e6,
                "dense_dc_ms": _best_dc_solve_s(engine, dense_op.solution, "dense") * 1e3,
                "sparse_dc_ms": _best_dc_solve_s(engine, dense_op.solution, "sparse") * 1e3,
            }
        )

    crossover_size = next(
        (r["system_size"] for r in rows if r["sparse_solve_us"] < r["dense_solve_us"]),
        None,
    )
    benchmark.pedantic(
        get_engine(build_scalability_bench(GRIDS[0], model=switch_model).circuit).solve_dc,
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["crossover_size"] = crossover_size

    write_bench_json(
        "BENCH_solvers.json",
        {
            "benchmark": "dense_sparse_crossover",
            "grids": list(GRIDS),
            "rows": rows,
            "crossover_size": crossover_size,
        },
        merge=True,
    )
    lines = [
        "Dense vs sparse backend on identity-lattice circuits (raw solve of the"
        " operating-point Jacobian / warm end-to-end DC solve):"
    ]
    for r in rows:
        lines.append(
            f"  {r['grid']:2d}x{r['grid']:<2d} (n={r['system_size']:4d}): "
            f"dense {r['dense_solve_us']:8.1f} us | sparse {r['sparse_solve_us']:8.1f} us"
            f"   DC: dense {r['dense_dc_ms']:7.2f} ms | sparse {r['sparse_dc_ms']:7.2f} ms"
        )
    lines.append(
        f"  sparse-beats-dense crossover: n ~ {crossover_size}"
        if crossover_size is not None
        else "  no crossover inside the measured sizes (dense wins throughout)"
    )
    report("\n".join(lines))

    # The recorded trajectory is the deliverable; the only hard expectation
    # is that the backends agree (asserted above) and that the largest
    # measured lattice shows sparse at least holding its own per raw solve.
    largest = rows[-1]
    max_ratio = float(os.environ.get("SOLVER_BENCH_MAX_SPARSE_RATIO", "2.0"))
    assert largest["sparse_solve_us"] <= max_ratio * largest["dense_solve_us"]


def _timed_batched_dc(engine, stacks, trials, warm_start, solver):
    """(wall_s, peak_bytes, result) of one batched Monte-Carlo DC study.

    Wall clock and peak memory come from separate runs: tracemalloc's
    allocation hooks slow NumPy enough to distort a timing measurement.
    """
    start = time.perf_counter()
    result = engine.solve_dc_batched(
        stacks, trials=trials, initial_guess=warm_start, refresh=False, solver=solver
    )
    wall_s = time.perf_counter() - start
    assert bool(np.all(result.converged))

    tracemalloc.start()
    engine.solve_dc_batched(
        stacks, trials=trials, initial_guess=warm_start, refresh=False, solver=solver
    )
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return wall_s, peak_bytes, result


@pytest.mark.skipif(not scipy_available(), reason="sparse backend needs scipy")
def test_sparse_batched_crossover(switch_model):
    """Dense-batched vs sparse-batched stacked DC solves, size for size.

    Races the two batched backends over mid-size lattices with a
    ``mos_vth``-perturbed Monte-Carlo stack warm-started from the nominal
    operating point, and records the measured ``batched_crossover_size``
    (``solver="auto"`` keeps its fixed default; nothing is read back).
    """
    rows = []
    for grid in BATCH_GRIDS:
        bench = build_scalability_bench(grid, model=switch_model)
        engine = get_engine(bench.circuit)
        nominal = engine.solve_dc(solver="dense")
        assert nominal.converged
        montecarlo = MonteCarloEngine(
            bench.circuit, {"mos_vth": Gaussian(sigma=0.002)}, seed=29
        )
        stacks = montecarlo.sample_stacked_overlays(BATCH_TRIALS)

        dense_wall, dense_peak, dense_result = _timed_batched_dc(
            engine, stacks, BATCH_TRIALS, nominal.solution, "batched"
        )
        sparse_wall, sparse_peak, sparse_result = _timed_batched_dc(
            engine, stacks, BATCH_TRIALS, nominal.solution, "sparse-batched"
        )
        # Backend parity across the whole stack.
        assert np.allclose(
            dense_result.solutions, sparse_result.solutions, rtol=1e-8, atol=1e-9
        )
        rows.append(
            {
                "grid": grid,
                "system_size": bench.circuit.system_size,
                "nnz": engine.compiled.sparsity_pattern().nnz,
                "dense_batched_wall_s": dense_wall,
                "sparse_batched_wall_s": sparse_wall,
                "dense_batched_peak_mb": dense_peak / 1e6,
                "sparse_batched_peak_mb": sparse_peak / 1e6,
                "speedup": dense_wall / sparse_wall,
            }
        )

    batched_crossover_size = next(
        (
            r["system_size"]
            for r in rows
            if r["sparse_batched_wall_s"] < r["dense_batched_wall_s"]
        ),
        None,
    )
    write_bench_json(
        "BENCH_solvers.json",
        {
            "batched_trials": BATCH_TRIALS,
            "batched_rows": rows,
            "batched_crossover_size": batched_crossover_size,
        },
        merge=True,
    )
    lines = [
        f"Dense-batched vs sparse-batched stacked DC ({BATCH_TRIALS} trials,"
        " warm-started, mos_vth sigma=0.002):"
    ]
    for r in rows:
        lines.append(
            f"  {r['grid']:2d}x{r['grid']:<2d} (n={r['system_size']:4d},"
            f" nnz={r['nnz']:5d}): dense {r['dense_batched_wall_s']:7.2f} s"
            f" / {r['dense_batched_peak_mb']:8.1f} MB | sparse"
            f" {r['sparse_batched_wall_s']:7.2f} s"
            f" / {r['sparse_batched_peak_mb']:8.1f} MB"
            f"   speedup {r['speedup']:5.2f}x"
        )
    lines.append(
        f"  sparse-batched-beats-dense-batched crossover: n ~ {batched_crossover_size}"
        if batched_crossover_size is not None
        else "  no batched crossover inside the measured sizes"
    )
    report("\n".join(lines))

    assert rows[-1]["speedup"] >= MIN_SPEEDUP


def _reuse_study(engine, nominal_solution, seed_circuit, **controls):
    """(wall_s, result) of the canonical reuse-benchmark stacked DC study."""
    montecarlo = MonteCarloEngine(
        seed_circuit, {"mos_vth": Gaussian(sigma=0.002)}, seed=29
    )
    stacks = montecarlo.sample_stacked_overlays(BATCH_TRIALS)
    start = time.perf_counter()
    result = engine.solve_dc_batched(
        stacks,
        trials=BATCH_TRIALS,
        initial_guess=nominal_solution,
        refresh=False,
        solver="sparse-batched",
        **controls,
    )
    wall_s = time.perf_counter() - start
    assert bool(np.all(result.converged))
    return wall_s, result


@pytest.mark.skipif(not scipy_available(), reason="sparse backend needs scipy")
def test_factorization_reuse_speedup(switch_model):
    """Modified-Newton factorization reuse on the headline stacked DC study.

    Runs the largest batched-crossover lattice's 128-trial Monte-Carlo DC
    study twice through the sparse-batched backend — full Newton vs
    ``newton="reuse"`` — and records the wall-clock speedup and the
    factorization-count collapse.  The reuse solutions must agree with full
    Newton to within the Newton voltage tolerance (both runs converge; the
    iterates differ because reuse holds the Jacobian between refactorings).
    """
    grid = BATCH_GRIDS[-1]
    bench = build_scalability_bench(grid, model=switch_model)
    engine = get_engine(bench.circuit)
    nominal = engine.solve_dc(solver="sparse")
    assert nominal.converged

    full_wall, full = _reuse_study(engine, nominal.solution, bench.circuit)
    reuse_wall, reuse = _reuse_study(
        engine, nominal.solution, bench.circuit, newton="reuse"
    )

    assert float(np.max(np.abs(full.solutions - reuse.solutions))) < 1e-5
    # The whole point: reuse must refactor strictly less often.
    assert reuse.factorizations < full.factorizations
    assert reuse.factorization_reuses > 0
    speedup = full_wall / reuse_wall

    write_bench_json(
        "BENCH_solvers.json",
        {
            "reuse_grid": grid,
            "reuse_system_size": bench.circuit.system_size,
            "reuse_trials": BATCH_TRIALS,
            "reuse_full_wall_s": full_wall,
            "reuse_full_factorizations": int(full.factorizations),
            "reuse_wall_s": reuse_wall,
            "reuse_factorizations": int(reuse.factorizations),
            "reuse_reuses": int(reuse.factorization_reuses),
            "reuse_speedup": speedup,
        },
        merge=True,
    )
    report(
        f"Factorization reuse on the {grid}x{grid}"
        f" (n={bench.circuit.system_size}) stacked DC study"
        f" ({BATCH_TRIALS} trials, mos_vth sigma=0.002):\n"
        f"  full Newton    : {full_wall:7.2f} s,"
        f" {int(full.factorizations):6d} factorizations\n"
        f"  newton='reuse' : {reuse_wall:7.2f} s,"
        f" {int(reuse.factorizations):6d} factorizations,"
        f" {int(reuse.factorization_reuses):6d} reuses\n"
        f"  speedup        : {speedup:5.2f}x"
        f" (acceptance floor: {REUSE_MIN_SPEEDUP:g}x)"
    )
    assert speedup >= REUSE_MIN_SPEEDUP


@pytest.mark.skipif(not scipy_available(), reason="sparse backend needs scipy")
def test_large_lattice_sparse_batched(switch_model):
    """The headline study: 10k-unknown lattice, 128 stacked trials.

    A dense ``(trials, n, n)`` Jacobian stack at this size would need
    ``128 * 10089^2 * 8 B ~ 104 GB`` — it cannot even be allocated, so the
    dense side of the comparison is one measured raw dense solve plus the
    analytic stack footprint.  The sparse-batched path runs the full study
    end to end; ``tracemalloc`` certifies its peak against the analytic
    dense footprint and a small trial subset certifies bit-identity against
    the serial sparse path.
    """
    grid = scalability_grid_for_unknowns(LARGE_UNKNOWNS, model=switch_model)
    bench = build_scalability_bench(grid, model=switch_model)
    engine = get_engine(bench.circuit)
    n = bench.circuit.system_size
    nnz = engine.compiled.sparsity_pattern().nnz

    start = time.perf_counter()
    nominal = engine.solve_dc(solver="sparse")
    nominal_dc_s = time.perf_counter() - start
    assert nominal.converged

    # Raw per-solve cost of both backends on the converged Jacobian: the
    # measured half of the dense comparison.
    matrix, rhs = engine.compiled.assemble(
        AnalysisState(solution=nominal.solution, gmin=1e-9)
    )
    start = time.perf_counter()
    DenseSolver().solve(matrix, rhs)
    dense_solve_s = time.perf_counter() - start
    sparse = SparseSolver()
    sparse.bind(engine.compiled)
    sparse_solve_s = _best_solve_s(sparse, matrix, rhs, rounds=1)
    del matrix

    montecarlo = MonteCarloEngine(
        bench.circuit, {"mos_vth": Gaussian(sigma=LARGE_SIGMA)}, seed=11
    )
    stacks = montecarlo.sample_stacked_overlays(LARGE_TRIALS)

    # Bit-identity spot check: the batched sparse path must reproduce the
    # serial sparse path exactly, trial for trial (subset keeps it cheap).
    subset = {name: stack[:2] for name, stack in stacks.items()}
    lockstep = engine.solve_dc_batched(
        subset, trials=2, initial_guess=nominal.solution, refresh=False,
        solver="sparse-batched",
    )
    serial = engine.solve_dc_batched(
        subset, trials=2, initial_guess=nominal.solution, refresh=False,
        solver="sparse",
    )
    assert np.array_equal(lockstep.solutions, serial.solutions)

    start = time.perf_counter()
    result = engine.solve_dc_batched(
        stacks, trials=LARGE_TRIALS, initial_guess=nominal.solution,
        refresh=False, solver="sparse-batched",
    )
    wall_s = time.perf_counter() - start
    assert bool(np.all(result.converged))

    # Peak memory of the full study (separate run: tracemalloc's hooks
    # distort timings).  The comparison target is the dense Jacobian stack
    # alone — the dense path would also pay LU workspace on top.
    tracemalloc.start()
    engine.solve_dc_batched(
        stacks, trials=LARGE_TRIALS, initial_guess=nominal.solution,
        refresh=False, solver="sparse-batched",
    )
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    dense_stack_bytes = LARGE_TRIALS * n * n * 8
    raw_solve_speedup = dense_solve_s / sparse_solve_s
    mean_iterations = float(np.mean(result.iterations))
    payload = {
        "large_grid": grid,
        "large_system_size": n,
        "large_nnz": nnz,
        "large_trials": LARGE_TRIALS,
        "large_sigma": LARGE_SIGMA,
        "large_nominal_dc_s": nominal_dc_s,
        "large_dense_solve_s": dense_solve_s,
        "large_sparse_solve_s": sparse_solve_s,
        "large_raw_solve_speedup": raw_solve_speedup,
        "large_sparse_batched_wall_s": wall_s,
        "large_sparse_batched_peak_mb": peak_bytes / 1e6,
        "large_dense_stack_gb": dense_stack_bytes / 1e9,
        "large_peak_vs_dense_stack": peak_bytes / dense_stack_bytes,
        "large_mean_iterations": mean_iterations,
    }
    write_bench_json("BENCH_solvers.json", payload, merge=True)
    report(
        f"Large-lattice sparse-batched study ({grid}x{grid}, n={n}, nnz={nnz},"
        f" {LARGE_TRIALS} trials, mos_vth sigma={LARGE_SIGMA}):\n"
        f"  nominal sparse DC (gmin ladder): {nominal_dc_s:8.1f} s\n"
        f"  raw Jacobian solve: dense {dense_solve_s:8.2f} s | sparse"
        f" {sparse_solve_s * 1e3:8.1f} ms   ({raw_solve_speedup:.0f}x)\n"
        f"  sparse-batched study wall: {wall_s:8.1f} s"
        f" (mean {mean_iterations:.0f} Newton iterations/trial)\n"
        f"  peak memory {peak_bytes / 1e6:8.1f} MB vs dense-stack"
        f" {dense_stack_bytes / 1e9:.1f} GB analytic"
        f" ({100 * peak_bytes / dense_stack_bytes:.2f}%)"
    )

    # Acceptance: peak memory under a quarter of the dense stacked path,
    # and the raw-solve speedup above the recorded floor.  The memory
    # criterion is asymptotic (trials*nnz vs trials*n^2), so it only binds
    # at genuinely large systems — a smoke run shrunk through the env knobs
    # would fail on fixed interpreter overhead, not on the algorithm.
    if n >= 2000:
        assert peak_bytes < 0.25 * dense_stack_bytes
        assert raw_solve_speedup >= max(MIN_SPEEDUP, 1.0)
    else:
        assert raw_solve_speedup >= MIN_SPEEDUP
