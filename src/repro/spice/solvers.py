"""Pluggable linear-solver backends for the analysis engine.

Every Newton iteration of every analysis ends in one linear solve of the
assembled MNA system.  :class:`~repro.spice.engine.AnalysisEngine` routes
that solve through a :class:`LinearSolver` instance — the *solver seam* —
so the backend can be swapped without touching the assembly or the
iteration logic:

* :class:`DenseSolver` — ``np.linalg.solve`` on the dense assembled matrix.
  The default, and the reference the other backends are tested against.
* :class:`SparseSolver` — SciPy sparse LU (SuperLU) on a CSC matrix whose
  *structure* is precomputed once from the compiled circuit's
  :class:`~repro.spice.engine.SparsityPattern`.  A pattern-assembly backend
  (:attr:`LinearSolver.wants_pattern_assembly`): the engine hands it the
  ``(nnz,)`` CSC data array of ``CompiledCircuit.assemble_sparse`` directly,
  so no dense matrix is ever formed.  The fill-reducing column order
  (COLAMD) is computed once per bound pattern, by its first factorization;
  every later factorization gathers the data into that column order and
  skips the ordering step, with factors bit-identical to a plain ``splu``.
  Pays off on large lattices, where the MNA matrix is overwhelmingly
  empty.  Requires the optional ``scipy`` dependency — install it directly
  or through this package's ``[sparse]`` extra.
* :class:`BatchedDenseSolver` — stacks ``(trials, n, n)`` systems and
  solves them in a single vectorized LAPACK call.  The Monte-Carlo engine
  runs same-pattern trials through this backend
  (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_dc`); its
  per-system results are bit-identical to :class:`DenseSolver` on the same
  matrices.
* :class:`BatchedSparseSolver` — the sparse twin of the batched backend:
  the CSC *structure* (canonical ordering, position maps, ghost trimming,
  fill-reducing column order) is analyzed once per topology and shared by
  every trial, then each trial of the ``(trials, nnz)`` data stack is
  numerically factorized and solved through SuperLU over that shared
  structure.  Memory scales as ``trials * nnz`` instead of the dense
  stack's ``trials * n^2``.
* :class:`AutoSolver` — a *policy* backend (``solver="auto"``, the default
  spec value): picks dense vs sparse — and their batched variants — from
  the system size, the trial count and a fixed dense/sparse crossover
  (:data:`DEFAULT_DENSE_SPARSE_CROSSOVER`, calibrated by
  ``benchmarks/bench_solvers.py``).  Degrades gracefully to dense (with
  an actionable warning) when SciPy is unavailable.

Select a backend by name through any analysis method::

    get_engine(circuit).solve_dc(solver="sparse")
    get_engine(circuit).solve_transient(1e-6, 1e-9, solver="auto")

or hand a configured instance to ``get_solver`` / the engine directly.
Backends signal a numerically singular system uniformly by raising
``np.linalg.LinAlgError``, so the engine's gmin-bump retry works the same
whichever backend is active.

Two cross-cutting layers ride on the seam:

* a :class:`FactorizationCache` (on by default in the sparse backends)
  that fingerprints every pattern assembly and reuses the existing LU when
  the CSC data is bitwise unchanged — constant-Jacobian transient steps
  and the shared-base fast path stop paying ``splu``, with results
  bit-identical by construction;
* an optional ``threads=`` knob on the sparse-batched backend that fans
  the per-trial factorizations of a full-Newton stacked solve
  (:meth:`BatchedSparseSolver.solve_pattern_batched`) across a
  ``ThreadPoolExecutor`` (SuperLU releases the GIL), with identical
  numbers whatever the thread count.

Every backend keeps monotonic ``solver_stats()`` counters
(``factorizations`` / ``factorization_reuses``) that the engine surfaces
in its convergence records.
"""

from __future__ import annotations

import hashlib
import os
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "LinearSolver",
    "DenseSolver",
    "SparseSolver",
    "BatchedDenseSolver",
    "BatchedSparseSolver",
    "AutoSolver",
    "FactorizationCache",
    "Factorization",
    "DEFAULT_DENSE_SPARSE_CROSSOVER",
    "DEFAULT_FACTOR_CACHE_CAPACITY",
    "get_solver",
    "resolve_threads",
    "available_backends",
    "scipy_available",
]

#: System size at or above which :class:`AutoSolver` prefers the sparse
#: backends unless its constructor or ``REPRO_SOLVER_CROSSOVER`` overrides
#: it.  Calibrated on the identity-lattice scalability benches
#: (``benchmarks/bench_solvers.py``), where sparse SuperLU first beats the
#: dense LAPACK solve near n ≈ 300.
DEFAULT_DENSE_SPARSE_CROSSOVER = 300

#: LRU capacity of the per-solver :class:`FactorizationCache`.  A handful
#: of live LU objects covers the reuse patterns the engine actually
#: produces (a constant Jacobian across transient steps, the shared-base
#: fast path, an interleaved gmin rung) while bounding the memory held for
#: large-fill factorizations.
DEFAULT_FACTOR_CACHE_CAPACITY = 8


def resolve_threads(threads: Union[None, int, str]) -> int:
    """Normalize a ``threads=`` knob to a worker count (0 = serial loop).

    ``None`` keeps the historical serial loop, ``"auto"`` takes
    ``os.cpu_count()`` (degrading to the serial loop on a 1-CPU host), and
    an explicit int is used as-is (values below 2 mean serial).
    """
    if threads is None:
        return 0
    if threads == "auto":
        count = os.cpu_count() or 1
        return count if count > 1 else 0
    count = int(threads)
    if count < 1:
        raise ValueError(f"threads must be >= 1 or 'auto', got {threads!r}")
    return count if count > 1 else 0


def _import_scipy_sparse():
    """Import hook for the optional SciPy dependency (monkeypatch point).

    Returns ``(scipy.sparse, scipy.sparse.linalg)`` or raises ImportError
    with an actionable message.  Kept as a module-level function so tests
    (and environments without SciPy) exercise the failure path cleanly.
    """
    try:
        import scipy.sparse
        import scipy.sparse.linalg
    except ImportError as error:  # pragma: no cover - depends on environment
        raise ImportError(
            "the sparse solver backend needs scipy; install the optional "
            "extra (pip install scipy, or this package's [sparse] extra) or use solver='dense'"
        ) from error
    return scipy.sparse, scipy.sparse.linalg


def _splu(system, **options):
    """``splu`` of one CSC matrix, a singular factor raised as ``LinAlgError``.

    SuperLU reports an exactly singular factor as RuntimeError; normalizing
    it to the dense backend's exception keeps the engine's gmin-bump retry
    backend-agnostic.
    """
    _, sparse_linalg = _import_scipy_sparse()
    try:
        return sparse_linalg.splu(system, **options)
    except RuntimeError as error:
        raise np.linalg.LinAlgError(str(error)) from error


def scipy_available() -> bool:
    """Whether the optional SciPy dependency (sparse backend) is importable."""
    try:
        _import_scipy_sparse()
    except ImportError:
        return False
    return True


class FactorizationCache:
    """Keyed LRU of numeric factorizations over one CSC structure.

    Keys are ``(structure token, data fingerprint)`` where the fingerprint
    is a BLAKE2b digest of the raw CSC data bytes: two assemblies hit the
    same entry exactly when they are *bitwise* identical, and since the LU
    is a pure function of the matrix, a cache hit returns results
    bit-identical to refactorizing.  This is what lets the cache stay on by
    default — constant-Jacobian transient steps and the shared-base fast
    path reuse their LU with zero numerical drift.

    Thread-safe: the threaded batched backend factorizes trials
    concurrently and publishes through :meth:`put` under a lock (a racing
    duplicate factorization is benign — the LUs are identical and one
    wins).
    """

    def __init__(self, capacity: int = DEFAULT_FACTOR_CACHE_CAPACITY):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[int, bytes], object]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def fingerprint(data: np.ndarray) -> bytes:
        """128-bit BLAKE2b digest of an array's raw bytes."""
        return hashlib.blake2b(
            np.ascontiguousarray(data).tobytes(), digest_size=16
        ).digest()

    def get(self, structure: int, fingerprint: bytes):
        """The cached factorization for a key, or ``None`` (marks it MRU)."""
        key = (structure, fingerprint)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, structure: int, fingerprint: bytes, factorization) -> None:
        """Insert a factorization, evicting the LRU entry beyond capacity."""
        key = (structure, fingerprint)
        with self._lock:
            self._entries[key] = factorization
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # A threading.Lock cannot be pickled; a cache travels empty.
    def __getstate__(self):
        return {"capacity": self.capacity}

    def __setstate__(self, state):
        self.__init__(state.get("capacity", DEFAULT_FACTOR_CACHE_CAPACITY))


class Factorization:
    """A held LU handle the engine keeps across Newton rounds and steps.

    Returned by :meth:`SparseSolver.factorize_pattern`; the engine's
    modified-Newton reuse state (one per serial march or stacked trial)
    stores these so a frozen Jacobian keeps solving without refactorizing.
    Counting convention: the solve that *paid* for a fresh factorization is
    free; every later solve through the handle is a reuse on the owning
    solver's :meth:`~LinearSolver.solver_stats`.
    """

    __slots__ = ("fingerprint", "_owner", "_solve", "_free_solves")

    def __init__(self, owner: "LinearSolver", solve, fingerprint: bytes, fresh: bool):
        self.fingerprint = fingerprint
        self._owner = owner
        self._solve = solve
        self._free_solves = 1 if fresh else 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._free_solves:
            self._free_solves -= 1
        else:
            self._owner._count_reuses(1)
        return self._solve(rhs)


class LinearSolver:
    """Protocol of the engine's linear-solve seam.

    A solver receives the assembled (ghost-trimmed) Jacobian and right-hand
    side of one Newton iteration and returns the update's solution vector.
    Implementations must raise ``np.linalg.LinAlgError`` on a singular
    system so the engine's fallbacks (gmin bumping) stay backend-agnostic.

    :meth:`bind` is an optional pre-solve hook: the engine calls it with the
    active :class:`~repro.spice.engine.CompiledCircuit` before a Newton run
    so structure-caching backends (sparse) can precompute their sparsity
    pattern once per compiled topology.

    Backends that set :attr:`wants_pattern_assembly` receive CSC data
    arrays assembled straight into the compiled circuit's
    :class:`~repro.spice.engine.SparsityPattern`
    (:meth:`solve_pattern`/:meth:`solve_pattern_batched`) instead of dense
    matrices — the engine never materializes ``(n, n)`` for them.  They
    also provide ``factorize_pattern`` (a :class:`Factorization` handle),
    which the engine's modified Newton (``newton="reuse"``) holds across
    rounds, serially and per stacked trial alike.

    :meth:`select` resolves *policy* backends: the engine calls it with the
    compiled circuit (and the trial count for batched runs) right before a
    Newton run, and the returned concrete backend does the solving — a
    policy backend has no solve methods of its own.  Plain backends return
    themselves.
    """

    #: Registry name of the backend (``solver="<name>"`` in the frontends).
    name = "base"

    #: When True the engine assembles CSC pattern data
    #: (``CompiledCircuit.assemble_sparse*``) and calls
    #: :meth:`solve_pattern`/:meth:`solve_pattern_batched` instead of the
    #: dense :meth:`solve`/:meth:`solve_batched`.
    wants_pattern_assembly = False

    # Monotonic work counters (class defaults; += lazily creates the
    # instance attributes, so no backend needs an __init__ for them).
    _n_factorizations = 0
    _n_reuses = 0

    def _count_factorizations(self, count: int) -> None:
        self._n_factorizations = self._n_factorizations + count

    def _count_reuses(self, count: int) -> None:
        self._n_reuses = self._n_reuses + count

    def solver_stats(self) -> Dict[str, int]:
        """Monotonic work counters of this backend instance.

        ``factorizations`` counts numeric matrix factorizations actually
        performed; ``factorization_reuses`` counts linear solves served by
        an already-computed factorization (cache hits and modified-Newton
        bypass steps).  The engine snapshots these around each analysis to
        surface per-run counts in the convergence records.
        """
        return {
            "factorizations": self._n_factorizations,
            "factorization_reuses": self._n_reuses,
        }

    def select(self, compiled, trials: Optional[int] = None) -> "LinearSolver":
        """Resolve to the concrete backend for this run (default: self)."""
        return self

    def bind(self, compiled) -> None:
        """Precompute per-topology structure (default: nothing to do)."""

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve one ``(n, n)`` system; raises ``LinAlgError`` if singular."""
        raise NotImplementedError

    def solve_batched(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve stacked ``(T, n, n)`` systems against ``(T, n)`` vectors.

        The base implementation loops over :meth:`solve`; backends with a
        genuinely batched kernel (dense LAPACK) override it.
        """
        return np.stack([self.solve(m, r) for m, r in zip(matrices, rhs)])

    def solve_pattern(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve one system given as ``(nnz,)`` data of the bound pattern."""
        raise NotImplementedError(
            f"the {self.name!r} backend does not take pattern-assembled systems"
        )

    def solve_pattern_batched(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve a ``(T, nnz)`` pattern-data stack against ``(T, n)`` vectors."""
        return np.stack([self.solve_pattern(d, r) for d, r in zip(data, rhs)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DenseSolver(LinearSolver):
    """The default backend: one dense LAPACK solve per Newton iteration.

    Its :meth:`solve_batched` deliberately loops — this is the *per-trial
    dense path* the batched backend is benchmarked against.
    """

    name = "dense"

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._count_factorizations(1)
        return np.linalg.solve(matrix, rhs)


class BatchedDenseSolver(DenseSolver):
    """Dense backend whose batched solve is a single vectorized LAPACK call.

    ``np.linalg.solve`` on a ``(T, n, n)`` stack dispatches one gufunc call
    that factorizes every system without returning to Python, which is what
    makes batched Monte-Carlo trials cheap.  Each system in the stack is
    solved by the same LAPACK routine as a lone dense solve, so results are
    bit-identical to :class:`DenseSolver` system for system.
    """

    name = "batched"

    def solve_batched(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._count_factorizations(int(matrices.shape[0]))
        return np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]


class _OrderedLU:
    """SuperLU factors of ``A[:, order]`` that solve ``A x = b``."""

    __slots__ = ("_lu", "_perm_c")

    def __init__(self, lu, perm_c: np.ndarray):
        self._lu = lu
        self._perm_c = perm_c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # The factored matrix's column j is A's column inv[j]
        # (inv[perm_c] = arange(n)), so x[inv] = y, i.e. x = y[perm_c].
        return self._lu.solve(rhs)[self._perm_c]


class _ColumnOrder(NamedTuple):
    """A pattern's fill-reducing column order, fixed by one factorization.

    SuperLU's COLAMD ordering depends only on the CSC structure, which the
    bound :class:`~repro.spice.engine.SparsityPattern` fixes per topology.
    Built once from the ``perm_c`` of the pattern's first (plain ``splu``)
    factorization, it lets every later factorization skip the ordering:
    the data is gathered straight into the column-permuted CSC and handed
    to ``splu(..., permc_spec="NATURAL")``.  Only columns are permuted —
    rows stay in pattern order — and that reproduces the COLAMD path's
    factors bit for bit.  An immutable tuple, so threads racing on a
    pattern's first factorization publish equal values.
    """

    perm_c: np.ndarray   # SuperLU's column permutation of the pattern
    gather: np.ndarray   # pattern data position of each permuted CSC entry
    indices: np.ndarray  # int32 row indices of the permuted CSC
    indptr: np.ndarray   # int32 column pointers of the permuted CSC
    size: int

    @classmethod
    def of(cls, pattern, perm_c: np.ndarray) -> "_ColumnOrder":
        perm_c = np.asarray(perm_c, dtype=np.int64)
        inv = np.empty_like(perm_c)
        inv[perm_c] = np.arange(perm_c.size)
        # Column j of the permuted matrix is the pattern's column inv[j],
        # its data run copied whole (row order unchanged).
        starts = pattern.indptr[inv].astype(np.int64)
        counts = np.diff(pattern.indptr)[inv].astype(np.int64)
        indptr = np.zeros(pattern.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], counts) + np.arange(pattern.nnz)
        return cls(
            perm_c,
            gather,
            pattern.indices[gather],
            indptr.astype(np.int32),
            pattern.size,
        )

    def factorize(self, data: np.ndarray) -> _OrderedLU:
        sparse, _ = _import_scipy_sparse()
        system = sparse.csc_matrix(
            (data[self.gather], self.indices, self.indptr),
            shape=(self.size, self.size),
        )
        return _OrderedLU(_splu(system, permc_spec="NATURAL"), self.perm_c)


class SparseSolver(LinearSolver):
    """SciPy SuperLU backend over the compiled circuit's sparsity pattern.

    :meth:`bind` takes the compiled circuit's shared
    :class:`~repro.spice.engine.SparsityPattern` (built once per topology);
    the engine then assembles straight into that pattern's CSC data array
    (:meth:`solve_pattern`) — no dense matrix, no per-iteration structure
    analysis.  The bound pattern's first factorization runs plain ``splu``
    and records its COLAMD column order; later ones reuse it instead of
    reordering (:class:`_ColumnOrder`), bit-identically.

    :meth:`solve` takes a dense matrix: it gathers the CSC data through the
    bound pattern, or converts the whole matrix when nothing is bound.
    """

    name = "sparse"
    wants_pattern_assembly = True

    def __init__(self, cache_capacity: int = DEFAULT_FACTOR_CACHE_CAPACITY):
        # Fail at construction, not mid-Newton, when scipy is missing.
        _import_scipy_sparse()
        self._bound_key: Optional[Tuple[int, int]] = None
        self._pattern = None  # the compiled circuit's SparsityPattern
        #: LU cache over the bound pattern (cleared on every rebind).
        self.factorization_cache = FactorizationCache(cache_capacity)
        # Fill-reducing column order of the bound pattern, from its first
        # factorization (reset on every rebind).
        self._column_order: Optional[_ColumnOrder] = None

    def bind(self, compiled) -> None:
        key = (id(compiled), compiled.revision)
        if key == self._bound_key:
            return
        self._bound_key = key
        self._pattern = compiled.sparsity_pattern()
        self._column_order = None
        self.factorization_cache.clear()

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        sparse, _ = _import_scipy_sparse()
        pattern = self._pattern
        if pattern is not None:
            system = sparse.csc_matrix(
                (matrix[pattern.rows, pattern.cols], pattern.indices, pattern.indptr),
                shape=matrix.shape,
            )
        else:
            system = sparse.csc_matrix(matrix)
        lu = _splu(system)
        self._count_factorizations(1)
        return lu.solve(rhs)

    def _require_pattern(self, caller: str):
        pattern = self._pattern
        if pattern is None:
            raise RuntimeError(
                f"{caller} needs a bound sparsity pattern; bind() the "
                "compiled circuit first"
            )
        return pattern

    def _factorize(self, data: np.ndarray, count: bool = True):
        """The LU for one pattern assembly: ``(lu, fingerprint, cache_hit)``.

        Consults the :class:`FactorizationCache` first — a bitwise-unchanged
        data array reuses the existing LU, which is bit-identical to
        refactorizing.  Otherwise the bound pattern's first factorization
        runs plain ``splu`` (COLAMD) and records its column order; every
        later one factorizes the pre-permuted matrix under that order (see
        :class:`_ColumnOrder`).  ``count=False`` defers the counter updates
        to the caller (the threaded batched path tallies in the main
        thread).
        """
        pattern = self._require_pattern("solve_pattern")
        fingerprint = FactorizationCache.fingerprint(data)
        structure = id(pattern)
        lu = self.factorization_cache.get(structure, fingerprint)
        if lu is not None:
            if count:
                self._count_reuses(1)
            return lu, fingerprint, True
        # Read once: racing threads of the batched path may each run the
        # first COLAMD factorization; they publish identical orders.
        order = self._column_order
        if order is None:
            sparse, _ = _import_scipy_sparse()
            lu = _splu(
                sparse.csc_matrix(
                    (data, pattern.indices, pattern.indptr),
                    shape=(pattern.size, pattern.size),
                )
            )
            self._column_order = _ColumnOrder.of(pattern, lu.perm_c)
        else:
            lu = order.factorize(data)
        if count:
            self._count_factorizations(1)
        self.factorization_cache.put(structure, fingerprint, lu)
        return lu, fingerprint, False

    def solve_pattern(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lu, _, _ = self._factorize(data)
        return lu.solve(rhs)

    def factorize_pattern(self, data: np.ndarray) -> Factorization:
        """A reuse handle over one pattern assembly (modified-Newton state).

        The handle keeps a strong reference to its LU, so it stays valid
        after the cache evicts the entry; its solves count as reuses on
        this solver (see :class:`Factorization`).
        """
        lu, fingerprint, hit = self._factorize(data, count=False)
        if not hit:
            self._count_factorizations(1)
        return Factorization(self, lu.solve, fingerprint, fresh=not hit)


class BatchedSparseSolver(SparseSolver):
    """Sparse backend for stacked trials over one shared CSC structure.

    The structural work — canonical CSC ordering, stamp-position maps,
    ghost trimming — happens once per topology in the shared
    :class:`~repro.spice.engine.SparsityPattern`, and the fill-reducing
    column order once per bound pattern (the first factorization's COLAMD
    permutation, see :class:`_ColumnOrder`).  Every trial of a
    ``(trials, nnz)`` data stack then reuses both and pays ``splu`` without
    the ordering step: SciPy's SuperLU binding keeps no other symbolic
    state between factorizations, so the elimination tree and pivoting
    still run per trial.  A singular trial anywhere in the stack raises
    ``LinAlgError`` for the whole stack, exactly like the batched dense
    backend, so the engine's per-trial isolation and gmin/source-stepping
    ladders work unchanged.

    ``threads=`` fans the per-trial factorizations of
    :meth:`solve_pattern_batched` (the full-Newton stacked solve) across a
    thread pool.  Modified Newton (``newton="reuse"``) refreezes each
    trial's LU through :meth:`factorize_pattern`, one trial at a time.
    """

    name = "sparse-batched"

    def __init__(
        self,
        threads: Union[None, int, str] = None,
        cache_capacity: int = DEFAULT_FACTOR_CACHE_CAPACITY,
    ):
        super().__init__(cache_capacity=cache_capacity)
        #: Worker-thread count for the per-trial factorizations of
        #: :meth:`solve_pattern_batched` (0 = the serial loop; see
        #: :func:`resolve_threads`).
        self.threads = resolve_threads(threads)

    def _map_trials(self, trials: int, worker) -> List:
        """Run ``worker(trial)`` over every trial, threaded when configured.

        SuperLU releases the GIL during factorization and the triangular
        solves, so a ThreadPoolExecutor fans the per-trial numeric work
        across cores; each trial's result is bitwise independent of the
        thread count (the trials share no mutable state beyond the
        lock-protected cache).  A singular trial's ``LinAlgError``
        propagates for the whole stack, exactly like the serial loop.
        """
        if self.threads > 1 and trials > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                return list(pool.map(worker, range(trials)))
        return [worker(trial) for trial in range(trials)]

    def solve_pattern_batched(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._require_pattern("solve_pattern_batched")

        def worker(trial):
            lu, _, hit = self._factorize(data[trial], count=False)
            return lu.solve(rhs[trial]), hit

        results = self._map_trials(data.shape[0], worker)
        out = np.empty_like(rhs)
        hits = 0
        for trial, (solution, hit) in enumerate(results):
            out[trial] = solution
            hits += hit
        # Tally in the calling thread so the counters never race.
        self._count_reuses(hits)
        self._count_factorizations(len(results) - hits)
        return out


class AutoSolver(LinearSolver):
    """Size/trial-aware backend selection behind the normal solver seam.

    ``solver="auto"`` — the default spec value — resolves to a concrete
    backend per Newton run through :meth:`select`:

    * systems below the dense/sparse crossover use :class:`DenseSolver`
      (serial) or :class:`BatchedDenseSolver` (stacked trials);
    * systems at or above it use :class:`SparseSolver` /
      :class:`BatchedSparseSolver`, assembling straight into the CSC
      pattern (``trials * nnz`` memory instead of ``trials * n^2``).

    The crossover comes from, in order: the constructor argument, the
    ``REPRO_SOLVER_CROSSOVER`` environment variable (ignored unless it is an
    integer), and finally :data:`DEFAULT_DENSE_SPARSE_CROSSOVER`; the
    batched crossover falls back to the serial one.  No recorded benchmark
    file is consulted: ``benchmarks/bench_solvers.py`` measures the
    crossovers, but a run's backend never depends on what it recorded.

    When SciPy is missing, a
    selection that would have gone sparse falls back to dense and warns
    once (RuntimeWarning) with the install hint — the run still completes.
    """

    name = "auto"

    def __init__(
        self,
        crossover: Optional[int] = None,
        batched_crossover: Optional[int] = None,
        threads: Union[None, int, str] = None,
    ):
        env = os.environ.get("REPRO_SOLVER_CROSSOVER")

        def resolve(value: Optional[int], fallback: int) -> int:
            if value is not None:
                return int(value)
            if env:
                try:
                    return int(env)
                except ValueError:
                    pass
            return fallback

        #: Serial dense/sparse crossover (system size).
        self.crossover = resolve(crossover, DEFAULT_DENSE_SPARSE_CROSSOVER)
        #: Batched crossover; falls back to the serial one.
        self.batched_crossover = resolve(batched_crossover, self.crossover)
        self._instances: Dict[str, LinearSolver] = {}
        self._warned_no_scipy = False
        #: Worker threads handed to the sparse-batched backend it selects.
        self.threads = resolve_threads(threads)

    def _backend(self, name: str) -> LinearSolver:
        solver = self._instances.get(name)
        if solver is None:
            if name == BatchedSparseSolver.name and self.threads:
                solver = BatchedSparseSolver(threads=self.threads)
            else:
                solver = _BACKENDS[name]()
            self._instances[name] = solver
        return solver

    def solver_stats(self) -> Dict[str, int]:
        """Counters summed over every concrete backend selected so far."""
        stats = {"factorizations": 0, "factorization_reuses": 0}
        for solver in self._instances.values():
            for key, value in solver.solver_stats().items():
                stats[key] += value
        return stats

    def select(self, compiled, trials: Optional[int] = None) -> LinearSolver:
        batched = trials is not None
        threshold = self.batched_crossover if batched else self.crossover
        want_sparse = compiled.size >= threshold
        if want_sparse and not scipy_available():
            if not self._warned_no_scipy:
                warnings.warn(
                    f"solver='auto' would use the sparse backend for this "
                    f"{compiled.size}-unknown system, but scipy is not "
                    "installed; falling back to the dense backend (slower and "
                    "O(n^2) memory at this size). Install scipy — pip install "
                    "scipy, or this package's [sparse] extra — to enable it.",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._warned_no_scipy = True
            want_sparse = False
        if want_sparse:
            return self._backend("sparse-batched" if batched else "sparse")
        return self._backend("batched" if batched else "dense")


_BACKENDS: Dict[str, Type[LinearSolver]] = {
    DenseSolver.name: DenseSolver,
    SparseSolver.name: SparseSolver,
    BatchedDenseSolver.name: BatchedDenseSolver,
    BatchedSparseSolver.name: BatchedSparseSolver,
    AutoSolver.name: AutoSolver,
}


def available_backends() -> Tuple[str, ...]:
    """Names of the backends constructible in this environment."""
    names = [DenseSolver.name, BatchedDenseSolver.name, AutoSolver.name]
    if scipy_available():
        names[1:1] = [SparseSolver.name]
        names.insert(3, BatchedSparseSolver.name)
    return tuple(names)


def get_solver(
    spec: Union[None, str, LinearSolver] = None,
    threads: Union[None, int, str] = None,
) -> LinearSolver:
    """Resolve a solver spec: ``None`` (dense default), a name, or an instance.

    ``threads`` fans the per-trial sparse factorizations of stacked solves
    across a thread pool; it is only meaningful for the ``"sparse-batched"``
    backend (or ``"auto"``, which forwards it to the sparse-batched backend
    it selects), and therefore needs SciPy.
    """
    if threads is not None:
        if not scipy_available():
            raise RuntimeError(
                "threads= fans per-trial SuperLU factorizations across a "
                "thread pool, which needs the sparse-batched backend and "
                "therefore scipy; install scipy (pip install scipy, or this "
                "package's [sparse] extra) or drop the threads= argument"
            )
        if isinstance(spec, LinearSolver):
            raise ValueError(
                "threads= cannot reconfigure an existing solver instance; "
                "construct it with threads directly, e.g. "
                "BatchedSparseSolver(threads=...) or AutoSolver(threads=...)"
            )
        name = spec.lower() if isinstance(spec, str) else spec
        if name == AutoSolver.name:
            return AutoSolver(threads=threads)
        if name == BatchedSparseSolver.name:
            return BatchedSparseSolver(threads=threads)
        raise ValueError(
            f"threads= applies to the 'sparse-batched' (or 'auto') backend, "
            f"not {spec!r}; pick solver='sparse-batched'/'auto' or drop threads="
        )
    if spec is None:
        return DenseSolver()
    if isinstance(spec, LinearSolver):
        return spec
    if isinstance(spec, str):
        backend = _BACKENDS.get(spec.lower())
        if backend is None:
            raise ValueError(
                f"unknown solver backend {spec!r}; expected one of {sorted(_BACKENDS)}"
            )
        return backend()
    raise TypeError(
        f"solver must be None, a backend name or a LinearSolver instance, got {spec!r}"
    )
