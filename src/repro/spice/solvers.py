"""Pluggable linear-solver backends for the analysis engine.

Every Newton iteration of every analysis ends in one linear solve of the
assembled MNA system.  :class:`~repro.spice.engine.AnalysisEngine` routes
that solve through a :class:`LinearSolver` instance — the *solver seam* —
so the backend can be swapped without touching the assembly or the
iteration logic:

* :class:`DenseSolver` — one LAPACK ``gesv`` on the dense assembled matrix,
  through the gufunc that ``np.linalg.solve`` wraps, called directly
  (:func:`_lapack_solve`).  The reference the other backends are tested
  against.
* :class:`SparseSolver` — SciPy sparse LU (SuperLU) on a CSC matrix whose
  *structure* is precomputed once from the compiled circuit's
  :class:`~repro.spice.engine.SparsityPattern`.  A pattern-assembly backend
  (:attr:`LinearSolver.wants_pattern_assembly`): the engine hands it the
  ``(nnz,)`` CSC data array of the compiled circuit's ``assemble_sparse``
  directly, so no dense matrix is ever formed.  The fill-reducing column order
  (COLAMD) is computed once per bound pattern, by its first factorization;
  every later factorization gathers the data into that column order and
  skips the ordering step, with factors bit-identical to a plain ``splu``.
  Every factorization hands the canonical CSC arrays the pattern holds
  straight to SciPy's SuperLU binding, with the options ``splu`` would
  build, so it skips ``splu``'s per-call matrix wrapper (:func:`_splu`).
  The process's first SuperLU factorization pins glibc's mmap and trim
  thresholds for the rest of the process, so SuperLU's per-call workspace
  comes from reused heap instead of freshly faulted pages.
  Pays off on large lattices, where the MNA matrix is overwhelmingly
  empty.  Requires the optional ``scipy`` dependency — install it directly
  or through this package's ``[sparse]`` extra.
* :class:`BatchedDenseSolver` — stacks ``(trials, n, n)`` systems and
  solves them in one vectorized LAPACK call, by the same direct gufunc
  route, in the calling thread.  The Monte-Carlo engine runs same-pattern
  trials through this backend
  (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_dc`); its
  per-system results are bit-identical to :class:`DenseSolver` on the same
  matrices.  A second CPU works on a stacked analysis one level up: the
  engine runs a large stack as two row blocks, one in a forked child (see
  :mod:`repro.spice._rowblocks`), each block's rounds solved here.
* :class:`BatchedSparseSolver` — the sparse twin of the batched backend:
  the CSC *structure* (canonical ordering, position maps, ghost trimming,
  fill-reducing column order) is analyzed once per topology and shared by
  every trial, then each trial of the ``(trials, nnz)`` data stack is
  numerically factorized and solved through SuperLU over that shared
  structure.  Memory scales as ``trials * nnz`` instead of the dense
  stack's ``trials * n^2``.
* :class:`AutoSolver` — a *policy* backend (``solver="auto"``, and what
  ``solver=None`` means at every entry point): picks dense vs sparse — and
  their batched variants — from the system size, the trial count and a
  fixed dense/sparse crossover
  (:data:`DEFAULT_DENSE_SPARSE_CROSSOVER`, calibrated by
  ``benchmarks/bench_solvers.py``).  Degrades gracefully to dense (with
  an actionable warning) when SciPy is unavailable.

Select a backend by name through any analysis method (omitting
``solver=`` is the same as ``"auto"``)::

    get_engine(circuit).solve_dc(solver="sparse")
    get_engine(circuit).solve_transient(1e-6, 1e-9, solver="auto")

or hand a configured instance to ``get_solver`` / the engine directly.
Backends signal a numerically singular system uniformly by raising
``np.linalg.LinAlgError``, so the engine's gmin-bump retry works the same
whichever backend is active.

Every backend keeps monotonic ``solver_stats()`` counters
(``factorizations`` / ``factorization_reuses``) that the engine surfaces
in its convergence records.  A full-Newton solve factorizes every time;
an LU is reused only through a :class:`Factorization` handle, which the
engine's modified Newton (``newton="reuse"``) holds across rounds.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import warnings
from typing import Dict, NamedTuple, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "LinearSolver",
    "DenseSolver",
    "SparseSolver",
    "BatchedDenseSolver",
    "BatchedSparseSolver",
    "AutoSolver",
    "Factorization",
    "DEFAULT_DENSE_SPARSE_CROSSOVER",
    "get_solver",
    "available_backends",
    "scipy_available",
]

#: System size at or above which :class:`AutoSolver` prefers the sparse
#: backends unless its constructor or ``REPRO_SOLVER_CROSSOVER`` overrides
#: it.  Calibrated on the identity-lattice scalability benches
#: (``benchmarks/bench_solvers.py``), where sparse SuperLU first beats the
#: dense LAPACK solve near n ≈ 300.
DEFAULT_DENSE_SPARSE_CROSSOVER = 300


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


#: glibc ``mallopt`` parameters (``<malloc.h>``) and the values
#: :func:`_settle_heap` pins them to: blocks under 4 MiB come from the heap,
#: and freed heap memory is returned to the system only above 8 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 8 * 1024 * 1024
#: Whether this process has run :func:`_settle_heap`.
_heap_settled = False


def _settle_heap() -> None:
    """Pin glibc's mmap and trim thresholds, once per process.

    SuperLU mallocs and frees its factorization workspace on every call.
    Under glibc's default dynamic thresholds, whether that workspace comes
    from reused heap or from freshly faulted mmap pages depends on what the
    process allocated and freed before; pinned, it is reused heap (the state
    glibc reaches by itself once a block of about 4 MiB has been freed).
    The setting is process-wide, so it is made on the first factorization,
    leaving processes that never factorize sparse as they are.  Where the
    C library has no ``mallopt`` (macOS, Windows), this does nothing.
    """
    global _heap_settled
    if _heap_settled:
        return
    _heap_settled = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


@functools.lru_cache(maxsize=None)
def _superlu_gstrf():
    """SciPy's private SuperLU binding, the call ``splu`` ends in.

    Returned with the keywords ``splu`` passes besides the matrix and its
    options.  ``None`` where this SciPy has no such binding, or one that
    does not take this call (probed once, on a 1x1 system); :func:`_splu`
    then runs ``splu`` itself.
    """
    try:
        from scipy.sparse import csc_array
        from scipy.sparse.linalg._dsolve._superlu import gstrf

        call = functools.partial(gstrf, csc_construct_func=csc_array, ilu=False)
        call(1, 1, np.ones(1), np.zeros(1, np.int32), np.array([0, 1], np.int32), options={})
    except (ImportError, TypeError):  # pragma: no cover - depends on the SciPy build
        return None
    return call


def _splu(size: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
          permc_spec: Optional[str] = None):
    """SuperLU of one canonical CSC matrix, a singular factor raised as
    ``LinAlgError``.

    ``data``, ``indices`` and ``indptr`` are the float64 values and the
    int32 row indices and column pointers of a ``size``-square matrix in
    canonical form (sorted rows, no duplicates), which is what every
    caller holds: the bound pattern, its column order and SciPy's own CSC
    conversion.  They go straight to SciPy's SuperLU binding
    (:func:`_superlu_gstrf`) with exactly the options ``splu`` builds for
    ``permc_spec`` (``SymmetricMode`` for ``"NATURAL"``), so the factors
    are ``splu``'s bit for bit without its per-call ``csc_array``,
    ``sum_duplicates``, float and index casts, which do nothing to such
    arrays (a strided row of a data stack is made contiguous first, as
    ``splu``'s conversion does).  On the n=399 lattice's Newton matrices a
    factorization under the recorded column order took 516 against 554 µs
    through ``splu`` (timeit min, 2-CPU host).  Where the binding is
    missing, this is ``splu``.

    SuperLU reports an exactly singular factor as RuntimeError; normalizing
    it to the dense backend's exception keeps the engine's gmin-bump retry
    backend-agnostic.  The process's first call pins the heap thresholds
    (:func:`_settle_heap`).
    """
    sparse, sparse_linalg = _import_scipy_sparse()
    _settle_heap()
    gstrf = _superlu_gstrf()
    try:
        if gstrf is None:
            system = sparse.csc_matrix((data, indices, indptr), shape=(size, size))
            return sparse_linalg.splu(system, permc_spec=permc_spec)
        options = {
            "DiagPivotThresh": None, "ColPerm": permc_spec, "PanelSize": None, "Relax": None,
        }
        if permc_spec == "NATURAL":
            options["SymmetricMode"] = True
        data = np.ascontiguousarray(data, dtype=np.float64)
        return gstrf(size, data.size, data, indices, indptr, options=options)
    except RuntimeError as error:
        raise np.linalg.LinAlgError(str(error)) from error


try:
    # NumPy's private LAPACK gufunc module (what ``np.linalg.solve`` calls).
    from numpy.linalg import _umath_linalg
except ImportError:  # pragma: no cover - depends on the NumPy build
    _umath_linalg = None


def _raise_singular(error: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


def _lapack_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of float64 arrays without its Python wrapper.

    Calls the ``_umath_linalg`` gufunc that ``np.linalg.solve`` picks for
    these arguments (``solve1`` for a 1-D right-hand side, ``solve``
    otherwise) under the error state ``np.linalg.solve`` sets, so the
    result has the same bits, a singular system raises ``LinAlgError`` and
    nothing warns.  The wrapper's array conversion, type resolution and
    result cast do nothing for the float64 arrays the engine assembles, yet
    cost about a quarter of a solve at Fig. 11 size (n=33: 10.6 against
    7.8 µs, timeit min).  Where NumPy lacks the private gufunc, this is
    ``np.linalg.solve`` itself.
    """
    gufunc = getattr(_umath_linalg, "solve1" if rhs.ndim == 1 else "solve", None)
    if gufunc is None:
        return np.linalg.solve(matrices, rhs)
    with np.errstate(
        call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return gufunc(matrices, rhs, signature="dd->d")


def scipy_available() -> bool:
    """Whether the optional SciPy dependency (sparse backend) is importable."""
    try:
        _import_scipy_sparse()
    except ImportError:
        return False
    return True


class Factorization:
    """A held LU handle the engine keeps across Newton rounds and steps.

    Returned by :meth:`SparseSolver.factorize_pattern`; the engine's
    modified-Newton reuse state (one per serial march or stacked trial)
    stores these so a frozen Jacobian keeps solving without refactorizing.
    :attr:`fingerprint` is the :meth:`digest` of the pattern data the LU
    was factorized from, so the engine can tell a bitwise-unchanged
    assembly.  Counting convention: the first solve paid for the
    factorization and is free; every later solve through the handle is a
    reuse on the owning solver's :meth:`~LinearSolver.solver_stats`.
    """

    __slots__ = ("fingerprint", "_owner", "_solve", "_free_solves")

    def __init__(self, owner: "LinearSolver", solve, data: np.ndarray):
        self.fingerprint = self.digest(data)
        self._owner = owner
        self._solve = solve
        self._free_solves = 1

    @staticmethod
    def digest(data: np.ndarray) -> bytes:
        """128-bit BLAKE2b digest of an array's raw bytes."""
        return hashlib.blake2b(
            np.ascontiguousarray(data).tobytes(), digest_size=16
        ).digest()

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
    #: (the compiled circuit's ``assemble_sparse*``) and calls
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
        an already-computed factorization: the solves through a
        :class:`Factorization` handle after its first, which only modified
        Newton (``newton="reuse"``) makes.  The engine snapshots these
        around each analysis to surface per-run counts in the convergence
        records.
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
    """One dense LAPACK solve per Newton iteration.

    :meth:`solve` calls the ``gesv`` gufunc behind ``np.linalg.solve``
    directly (:func:`_lapack_solve`): same bits, same ``LinAlgError`` on a
    singular system, without the wrapper's per-call Python work.  Its
    :meth:`solve_batched` deliberately loops — this is the *per-trial dense
    path* the batched backend is benchmarked against.
    """

    name = "dense"

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._count_factorizations(1)
        return _lapack_solve(matrix, rhs)


class BatchedDenseSolver(DenseSolver):
    """Dense backend whose batched solve is a single vectorized LAPACK call.

    The ``gesv`` gufunc on a ``(T, n, n)`` stack (:func:`_lapack_solve`, the
    call ``np.linalg.solve`` makes for it) factorizes every system without
    returning to Python, which is what makes batched Monte-Carlo trials
    cheap.  Each system in the stack is solved by the same LAPACK routine
    as a lone dense solve, so results are bit-identical to
    :class:`DenseSolver` system for system, and a singular system raises
    ``LinAlgError`` for the whole stack.  The call runs in the calling
    thread; a stack large enough for two CPUs is split by the engine into
    two row blocks in two processes, each solving its own rows here.
    """

    name = "batched"

    def solve_batched(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._count_factorizations(int(matrices.shape[0]))
        return _lapack_solve(matrices, rhs[..., np.newaxis])[..., 0]


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
    factors bit for bit.
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
        lu = _splu(self.size, data[self.gather], self.indices, self.indptr, "NATURAL")
        return _OrderedLU(lu, self.perm_c)


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

    def __init__(self):
        # Fail at construction, not mid-Newton, when scipy is missing.
        _import_scipy_sparse()
        self._bound_key: Optional[Tuple[int, int]] = None
        self._pattern = None  # the compiled circuit's SparsityPattern
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

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        pattern = self._pattern
        if pattern is not None:
            lu = _splu(
                pattern.size, matrix[pattern.rows, pattern.cols], pattern.indices,
                pattern.indptr,
            )
        else:
            sparse, _ = _import_scipy_sparse()
            system = sparse.csc_matrix(matrix)
            lu = _splu(matrix.shape[0], system.data, system.indices, system.indptr)
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

    def _factorize(self, data: np.ndarray):
        """The LU of one pattern assembly (uncounted; callers tally).

        The bound pattern's first factorization runs plain ``splu``
        (COLAMD) and records its column order; every later one factorizes
        the pre-permuted matrix under that order (see
        :class:`_ColumnOrder`).
        """
        pattern = self._require_pattern("solve_pattern")
        order = self._column_order
        if order is None:
            lu = _splu(pattern.size, data, pattern.indices, pattern.indptr)
            self._column_order = _ColumnOrder.of(pattern, lu.perm_c)
        else:
            lu = order.factorize(data)
        return lu

    def solve_pattern(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lu = self._factorize(data)
        self._count_factorizations(1)
        return lu.solve(rhs)

    def factorize_pattern(self, data: np.ndarray) -> Factorization:
        """A reuse handle over one pattern assembly (modified-Newton state).

        Its solves after the first count as reuses on this solver (see
        :class:`Factorization`).
        """
        lu = self._factorize(data)
        self._count_factorizations(1)
        return Factorization(self, lu.solve, data)


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
    ladders work unchanged.  Modified Newton (``newton="reuse"``)
    refreezes each trial's LU through :meth:`factorize_pattern`.
    """

    name = "sparse-batched"

    def solve_pattern_batched(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self._require_pattern("solve_pattern_batched")
        out = np.empty_like(rhs)
        for trial in range(data.shape[0]):
            out[trial] = self._factorize(data[trial]).solve(rhs[trial])
        self._count_factorizations(data.shape[0])
        return out


class AutoSolver(LinearSolver):
    """Size/trial-aware backend selection behind the normal solver seam.

    ``solver="auto"`` — the default everywhere — resolves to a concrete
    backend per Newton run through :meth:`select`:

    * systems below the dense/sparse crossover use :class:`DenseSolver`
      (serial) or :class:`BatchedDenseSolver` (stacked trials);
    * systems at or above it use :class:`SparseSolver` /
      :class:`BatchedSparseSolver`, assembling straight into the CSC
      pattern (``trials * nnz`` memory instead of ``trials * n^2``).

    The crossover comes from, in order: the constructor argument, the
    ``REPRO_SOLVER_CROSSOVER`` environment variable (ignored unless it is an
    integer), and finally :data:`DEFAULT_DENSE_SPARSE_CROSSOVER`; serial and
    stacked solves share it.  No recorded benchmark file is consulted:
    ``benchmarks/bench_solvers.py`` measures the crossovers, but a run's
    backend never depends on what it recorded.

    When SciPy is missing, a
    selection that would have gone sparse falls back to dense and warns
    once (RuntimeWarning) with the install hint — the run still completes.
    """

    name = "auto"

    def __init__(self, crossover: Optional[int] = None):
        if crossover is None:
            crossover = DEFAULT_DENSE_SPARSE_CROSSOVER
            env = os.environ.get("REPRO_SOLVER_CROSSOVER")
            if env:
                try:
                    crossover = int(env)
                except ValueError:
                    pass
        #: Dense/sparse crossover (system size) of serial and stacked solves.
        self.crossover = int(crossover)
        self._instances: Dict[str, LinearSolver] = {}
        self._warned_no_scipy = False

    def _backend(self, name: str) -> LinearSolver:
        solver = self._instances.get(name)
        if solver is None:
            solver = self._instances[name] = _BACKENDS[name]()
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
        want_sparse = compiled.size >= self.crossover
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


def get_solver(spec: Union[None, str, LinearSolver] = None) -> LinearSolver:
    """Resolve a solver spec: a name, an instance, or ``None`` (``"auto"``).

    ``None`` is the one default of every entry point: an :class:`AutoSolver`.
    """
    if spec is None:
        return AutoSolver()
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
