"""The unified analysis engine: compiled sparse stamping and batched sweeps.

All analyses (DC operating point, DC sweeps, transient) run through one
:class:`AnalysisEngine`, which owns the Newton-Raphson loop and the DC
convergence fallbacks (gmin stepping, source stepping).  Every Newton round
runs in one loop over a stack of trials; a stack of one — every serial
analysis — runs it as a row loop on its ``(n,)`` iterate.  The DC policy
(plain Newton with its stall rule, then the fallback ladders) lives in one
driver and the fixed-step transient in one march, each over a stack whose
serial case is a stack of one; the adaptive march steps a stack of one.
The engine compiles a :class:`~repro.spice.netlist.Circuit` once into
per-element-class index arrays (:class:`CompiledCircuit`) so each Newton
iteration assembles the Jacobian and right-hand side with one vectorized
kernel — for one ``(n,)`` iterate or a ``(trials, n)`` stack — into the
CSC data of a :class:`SparsityPattern`; the sparse solvers take that data
as is, and the dense ones get it placed into fresh ``(n, n)`` matrices.

Compilation notes
-----------------
* **Ghost slot.**  The solution and right-hand-side arrays carry one extra
  trailing slot for the ground node, and the pattern data one trailing
  trash slot.  Node index ``-1`` (ground) then addresses the ghost slot
  through ordinary NumPy indexing, so stamps and gathers need no per-entry
  ground checks; the ghost slot is simply dropped before the linear solve.
* **Static stamps.**  Resistor conductances and the structural +/-1 entries
  of voltage-source branches never change, so they are accumulated into
  base pattern data once per ``(gmin, timestep, integration)`` context;
  capacitor companion conductances join them during transient analysis.
  Each Newton iteration bins only the nonlinear (MOSFET) stamps into a
  fresh array at positions precomputed per topology and adds the base to
  it, so every entry is ``base + (0.0 + c1 + c2 + ...)`` with the stamps
  ``c1, c2, ...`` in one fixed order, serial or stacked.
* **Closed element set.**  The compiler knows exactly five element types
  (:class:`Resistor`, :class:`Capacitor`, :class:`MOSFET`,
  :class:`VoltageSource`, :class:`CurrentSource`) and raises ``TypeError``
  for any other, subclasses included (a subclass could change behavior
  the compiled arrays would silently ignore).  Every compiled circuit
  therefore has a static sparsity pattern, and the serial and stacked
  analyses accept the same circuits.  The elements hold no device
  equations: this module stamps all five, and the MOSFET model is
  :func:`~repro.spice.elements.mosfet.evaluate_level1_arrays`.
* **Invalidation.**  The compiled structure caches the circuit's
  :attr:`~repro.spice.netlist.Circuit.revision` and recompiles transparently
  when elements or nodes are added.

Use :func:`get_engine` to obtain the engine cached on a circuit; its
:meth:`~AnalysisEngine.solve_dc` / :meth:`~AnalysisEngine.dc_sweep` /
:meth:`~AnalysisEngine.solve_transient` methods are the public analysis
calls for code holding a circuit (:mod:`repro.api` specs run through them).

Solver seam
-----------
The final linear solve of every Newton iteration goes through a pluggable
:class:`~repro.spice.solvers.LinearSolver` backend (dense LAPACK, sparse
SuperLU for large lattices, a batched dense backend for stacked Monte-Carlo
trials).  Every analysis accepts ``solver=`` (a backend name or instance);
omitted, it is ``"auto"``, which picks among them by system size and trial
count.  See :mod:`repro.spice.solvers`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import (
    Callable, Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.spice.netlist import AnalysisState, Circuit
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import MOSFET, evaluate_level1_arrays
from repro.spice.elements.resistor import Resistor
from repro.spice.elements.sources import CurrentSource, VoltageSource
from repro.spice import _rowblocks
from repro.spice.solvers import (
    BatchedDenseSolver,
    BatchedSparseSolver,
    DenseSolver,
    Factorization,
    LinearSolver,
    SparseSolver,
    get_solver,
)
from repro.spice.waveforms import _sample

#: gmin ladder of the gmin-stepping fallback (relaxed decade by decade).
GMIN_LADDER: Tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

#: Stall limit of the plain DC Newton: a run that has gone this many rounds
#: without a new smallest ``max_update`` stops as not converged, and the
#: fallback ladders take over (they restart from the zero initial solution,
#: so their answer does not depend on when the plain run stopped).  Ladder
#: rungs and transient steps keep their full ``max_iterations`` budget.
NEWTON_STALL_ROUNDS = 20

#: Least system size whose serial sparse DC starts its fallback ladders in
#: a forked child at the stall window (:meth:`AnalysisEngine._solve_dc_stack`).
#: The fork, its copy-on-write faults and the kill or reap cost about 4 ms
#: (2-CPU host); what it buys is the ladder rounds that overlap the plain
#: run's.  Lattice DCs whose plain run fails at a 100-round budget, forked
#: against whole (medians of 9 alternating pairs): 1.01 at n=105, 0.96 at
#: n=135, 0.94 at n=207, 0.92 at n=295; at a 60-round budget 1.49 at n=25,
#: 1.21 at n=57 and 1.12 at n=79.  The floor sits just under n=135.
_LADDER_FORK_SIZE = 120

#: The backends a stacked analysis may split across a forked child
#: (:meth:`AnalysisEngine._run_blocks`): exact types, since a subclass may
#: keep state of its own that a child's block would leave behind.
_BUILTIN_BACKENDS = (DenseSolver, SparseSolver, BatchedDenseSolver, BatchedSparseSolver)


def _credit_counts(backend: LinearSolver, counts: Tuple[int, int]) -> None:
    """Credit ``(factorizations, reuses)`` a forked child's work made to
    ``backend``, so its ``solver_stats()`` read as if the work ran here."""
    factorizations, reuses = counts
    backend._count_factorizations(factorizations)
    backend._count_reuses(reuses)


#: Signs of a resistor's four static stamps (a-a, b-b, a-b, b-a).
_RESISTOR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

#: Source scale ladder of the source-stepping fallback (ramped to full drive).
SOURCE_LADDER: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)


def _fallback_ladders(gmin: float) -> Tuple[Tuple[str, List[Tuple[float, float]]], ...]:
    """The DC convergence fallbacks in the order they are tried.

    Each entry is ``(strategy, rungs)`` with ``rungs`` a list of
    ``(gmin, source_scale)`` Newton runs: gmin stepping relaxes from
    :data:`GMIN_LADDER` down to the target ``gmin``, then source stepping
    ramps every independent source through :data:`SOURCE_LADDER`.  A ladder
    starts from the zero initial solution, each rung seeds the next
    (converged or not), and only the last rung must converge.  The ladders
    take over from a plain Newton run that failed or stalled (see
    :data:`NEWTON_STALL_ROUNDS`); since they never read its iterate, their
    answers do not depend on when it stopped.  Every rung keeps the full
    ``max_iterations`` budget: the stall rule does not apply to rungs.
    """
    return (
        ("gmin-stepping", [(step_gmin, 1.0) for step_gmin in GMIN_LADDER + (gmin,)]),
        ("source-stepping", [(gmin, scale) for scale in SOURCE_LADDER]),
    )


def _check_transient_arguments(stop_time_s: float, timestep_s: float, integration: str) -> None:
    """Validate the time grid and integration method of a transient analysis."""
    if stop_time_s <= 0.0 or timestep_s <= 0.0:
        raise ValueError("stop time and timestep must be positive")
    if timestep_s > stop_time_s:
        raise ValueError("the timestep cannot exceed the stop time")
    if integration not in ("be", "trap"):
        raise ValueError("integration must be 'be' or 'trap'")

#: Stall threshold of the modified-Newton bypass (``newton="reuse"``): a
#: bypass round that shrinks the Newton update by less than this factor —
#: while the update is still above tolerance — has stopped contracting
#: usefully, and the next round refactors at the current iterate.  0.95
#: tolerates the slow-but-steady linear contraction a frozen Jacobian
#: typically produces near convergence (tighter thresholds flip-flop:
#: refactor, one good quadratic round, freeze, "stall", refactor ...).
REUSE_STALL_CONTRACTION = 0.95

#: Engagement threshold of the modified-Newton bypass: the frozen LU is
#: only worth stepping through once the iterate is already moving in small
#: steps — within the voltage scale over which the device conductances
#: stay roughly constant (a fraction of Vth).  While the previous round's
#: update is larger, the Jacobian changes too fast for the bypass to
#: contract and reuse mode refactors every round, exactly like full
#: Newton — without the gate a cold start thrashes (bypass, stall,
#: refactor) and ends up *slower* than the default path.
REUSE_ENGAGE_V = 0.05


def _wants_newton_reuse(newton: Optional[str]) -> bool:
    """Validate a ``newton=`` knob; True when the reuse mode is requested."""
    if newton not in (None, "full", "reuse"):
        raise ValueError(f"newton must be None, 'full' or 'reuse', got {newton!r}")
    return newton == "reuse"


class _NewtonReuseState:
    """Mutable carrier of one Newton march's frozen factorization.

    ``newton="reuse"`` keeps the last LU across Newton rounds (and, for a
    transient march, across timesteps): a bitwise-unchanged Jacobian solves
    through it directly (bit-identical to refactorizing), a changed one
    takes a modified-Newton bypass step through it until :meth:`observe`
    detects a contraction stall, which marks the handle stale so the next
    round refactors at the current iterate.  A serial march holds one
    state; a stacked march holds one per trial, and both take every round
    through :meth:`solve`.
    """

    __slots__ = ("handle", "stale", "prev_max_update")

    def __init__(self):
        self.handle = None
        self.stale = False
        self.prev_max_update: Optional[float] = None

    def invalidate(self) -> None:
        """Drop the handle entirely (singular factorization, hard reset)."""
        self.handle = None
        self.stale = False
        self.prev_max_update = None

    def freeze(self, handle) -> None:
        """Adopt a fresh factorization as the new frozen Jacobian."""
        self.handle = handle
        self.stale = False
        self.prev_max_update = None

    def engaged(self) -> bool:
        """Whether the bypass is worth attempting at the current iterate.

        True once the previous round's update is small enough
        (:data:`REUSE_ENGAGE_V`) that the Jacobian is roughly constant
        between rounds; until then every round refactors, matching full
        Newton step for step.
        """
        prev = self.prev_max_update
        return prev is not None and np.isfinite(prev) and prev <= REUSE_ENGAGE_V

    def observe(self, bypassed: bool, max_update: float, tolerance_v: float) -> None:
        """Track the contraction rate; mark the handle stale on a stall."""
        if bypassed and (
            not np.isfinite(max_update)
            or (
                self.prev_max_update is not None
                and max_update >= REUSE_STALL_CONTRACTION * self.prev_max_update
                and max_update >= tolerance_v
            )
        ):
            self.stale = True
        self.prev_max_update = max_update

    def solve(
        self,
        solver: LinearSolver,
        pattern: "SparsityPattern",
        solution: np.ndarray,
        data: np.ndarray,
        rhs: np.ndarray,
    ) -> Tuple[np.ndarray, bool]:
        """One Newton linear solve through the frozen factorization.

        Returns ``(new_solution, bypassed)``.  Three regimes:

        * the assembled pattern data is bitwise identical to the frozen
          one — solving through the kept LU *is* this round's full Newton
          step (bit-identical by construction; linear circuits and
          unchanged transient Jacobians live here);
        * the system changed but the frozen LU still contracts — the
          modified-Newton bypass steps against the *current* residual
          ``A(x) x - b(x)`` through the old factorization (same fixed
          point, no refactorization);
        * no usable factorization (first round, contraction stall,
          singular drop) — refactor at the current iterate and freeze the
          fresh handle.  A singular refactor invalidates the state and
          re-raises ``LinAlgError`` for the caller's gmin bump.
        """
        handle = self.handle
        if handle is not None:
            if Factorization.digest(data) == handle.fingerprint:
                return handle.solve(rhs), False
            if not self.stale and self.engaged():
                ax = np.bincount(
                    pattern.rows, weights=data * solution[pattern.cols], minlength=pattern.size
                )
                return solution - handle.solve(ax - rhs), True
        try:
            handle = solver.factorize_pattern(data)
        except np.linalg.LinAlgError:
            self.invalidate()
            raise
        self.freeze(handle)
        return handle.solve(rhs), False


#: Parameter vectors a compiled-circuit overlay may replace (one value per
#: element of the corresponding class; the two ``*_scale`` vectors multiply
#: the independent-source waveform values instead of replacing them).
PERTURBABLE_PARAMETERS: Tuple[str, ...] = (
    "mos_vth",
    "mos_beta",
    "mos_lambda",
    "resistor_ohm",
    "cap_c",
    "vsource_scale",
    "isource_scale",
)


def _value_rule(name: str, values: np.ndarray) -> Tuple[np.ndarray, str]:
    """The mask of ``values`` that break ``name``'s value rule, and the rule.

    ``resistor_ohm`` must be positive (``inf`` is an open resistor),
    ``cap_c`` finite and non-negative, and every other vector finite; NaN
    breaks every rule.
    """
    if name == "resistor_ohm":
        return ~(values > 0.0), "positive"
    if name == "cap_c":
        return ~np.isfinite(values) | (values < 0.0), "finite and non-negative"
    return ~np.isfinite(values), "finite"


def _check_parameter_values(name: str, values: np.ndarray) -> None:
    """Raise ``ValueError`` if ``values`` breaks ``name``'s value rule.

    The rules are :func:`_value_rule`'s.  ``values`` is one overlay vector or a
    ``(trials, count)`` stack, whose error names the first offending trial
    and, for a sign violation (usually an additive Monte-Carlo draw), the
    remedy.
    """
    bad, rule = _value_rule(name, values)
    if not np.any(bad):
        return
    if values.ndim == 1:
        value = float(values[bad][0])
        raise ValueError(f"{name} overlay values must be {rule}; got {value!r}")
    trial = int(np.flatnonzero(bad.any(axis=1))[0])
    value = float(values[trial][bad[trial]][0])
    hint = (
        " (additive distributions can cross zero on positive-only parameters "
        "— use Lognormal for resistor_ohm/cap_c, or shrink the spread)"
        if np.isfinite(value)
        else ""
    )
    raise ValueError(
        f"{name} stack values must be {rule}; trial {trial} has {value!r}{hint}"
    )


class _StampTable:
    """Where the MOSFET companion stamps land in an assembly row.

    An assembly row is the :attr:`split` slots of the CSC data (the trash
    slot of ground entries last) followed by the ``n + 1`` right-hand-side
    slots (the ghost slot last), :attr:`width` in all.  :attr:`forward`
    and :attr:`reverse` are the ``(10, M)`` positions, in such a row, of
    the eight conductance groups and the two current groups of every
    device under each channel orientation; the assembly picks one
    orientation per device with ``np.where`` and bins all ten groups in
    one ``np.bincount``.  :meth:`stacked` gives the same tables for a stack
    of rows laid end to end.
    """

    __slots__ = ("split", "width", "forward", "reverse", "_stacked")

    def __init__(
        self,
        system: Tuple[int, np.ndarray, np.ndarray],
        rhs: Tuple[int, np.ndarray, np.ndarray],
    ):
        """``system`` and ``rhs`` are ``(width, forward, reverse)`` of the two
        parts, positions counted within each part."""
        self.split, system_forward, system_reverse = system
        rhs_width, rhs_forward, rhs_reverse = rhs
        self.width = self.split + rhs_width
        self.forward = np.concatenate((system_forward, rhs_forward + self.split))
        self.reverse = np.concatenate((system_reverse, rhs_reverse + self.split))
        self.release()

    def stacked(self, trials: int, keep: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(trials, 10, M)`` tables, row ``t`` shifted by ``t * width``.

        With ``keep`` the tables built for the largest stack seen are kept
        and sliced ``[:trials]`` until :meth:`release`, so a Newton loop
        whose trials leave pays no per-round offset add.
        """
        forward, reverse = self._stacked
        if forward.shape[0] < trials:
            shift = np.arange(trials)[:, np.newaxis, np.newaxis] * self.width
            forward, reverse = self.forward + shift, self.reverse + shift
            if keep:
                self._stacked = (forward, reverse)
        return forward[:trials], reverse[:trials]

    def release(self) -> None:
        """Drop the kept stacked tables (``20 * trials * M`` positions)."""
        self._stacked = (self.forward[np.newaxis], self.reverse[np.newaxis])


class _KernelInputs(NamedTuple):
    """What an assembly reads that one Newton call holds constant.

    Built once per call, by :meth:`CompiledCircuit._row_inputs` for the
    serial row loop (:meth:`AnalysisEngine._newton_row`) and by
    :meth:`CompiledCircuit._stack_inputs` for the stacked loop
    (:meth:`AnalysisEngine._newton_batched`), and handed to every round's
    assembly, so a round pays neither the base-data cache lookup nor the
    parameter reads nor a fresh padded iterate, nor, for a stack, the
    stacked stamp tables.  A singular round, which bumps gmin, builds
    them again.  A stack's per-trial fields hold the active trials' rows
    (:meth:`compress` keeps them in step as trials leave); a round of ``k``
    active trials uses the first ``k`` rows of its buffer and tables.
    """

    base: np.ndarray  # linear base data, (nnz + 1,) shared or (k, nnz + 1)
    beta: np.ndarray  # MOSFET parameters, (M,) shared or (k, M) each
    vth: np.ndarray
    lam: np.ndarray
    # (n + 1,) or (trials, n + 1) iterate buffer; its ghost slots stay 0.0
    padded: np.ndarray
    # A stack's (trials, 10, M) stamp tables (_StampTable.stacked); a row
    # reads the pattern's own.
    forward: Optional[np.ndarray] = None
    reverse: Optional[np.ndarray] = None

    def compress(self, keep: np.ndarray) -> "_KernelInputs":
        """A stack's inputs for the active trials ``keep`` selects."""
        base, beta, vth, lam = (rows[keep] if rows.ndim == 2 else rows for rows in self[:4])
        return self._replace(base=base, beta=beta, vth=vth, lam=lam)


class SparsityPattern:
    """The CSC structure shared by every assembly of one compiled topology.

    Walks the compiled index arrays once and records every matrix entry any
    compiled stamp can touch — the node diagonal (gmin), the static resistor
    and voltage-source-branch entries, the capacitor companion entries and
    the MOSFET conductance positions of *both* channel orientations — as a
    canonical (column-major, deduplicated) CSC pattern.  On top of the raw
    structure (:attr:`indices`/:attr:`indptr`) it precomputes the data
    position of each linear stamp group, the MOSFET stamps of both
    orientations (:attr:`mos_csc`) and the dense cell of every data slot
    (:attr:`dense_pos`), so no assembly analyses structure per iteration.
    Ghost (ground) entries map to the trailing trash slot (data position
    :attr:`nnz`); an assembly allocates ``nnz + 1`` slots and hands out the
    prefix without it.
    """

    def __init__(self, compiled: "CompiledCircuit"):
        size = compiled.size
        self.size = size
        diag = np.arange(size)
        rows = [diag, compiled._static_rows, compiled._static_cols]
        cols = [diag, compiled._static_cols, compiled._static_rows]
        if compiled.num_capacitors:
            a, b = compiled.cap_a, compiled.cap_b
            rows.append(np.concatenate((a, b, a, b)))
            cols.append(np.concatenate((a, b, b, a)))
        if compiled.num_mosfets:
            d, g, s = compiled.mos_d, compiled.mos_g, compiled.mos_s
            rows.append(np.concatenate((d, s, d, s, d, s)))
            cols.append(np.concatenate((d, s, s, d, g, g)))
        all_rows = np.concatenate(rows).astype(np.int64)
        all_cols = np.concatenate(cols).astype(np.int64)
        keep = (all_rows < size) & (all_cols < size)
        all_rows, all_cols = all_rows[keep], all_cols[keep]
        order = np.lexsort((all_rows, all_cols))
        all_rows, all_cols = all_rows[order], all_cols[order]
        unique = np.ones(all_rows.size, dtype=bool)
        unique[1:] = (all_rows[1:] != all_rows[:-1]) | (all_cols[1:] != all_cols[:-1])
        #: COO view of the pattern (also the gather indices for turning a
        #: dense assembled matrix into this pattern's data array).
        self.rows = all_rows[unique]
        self.cols = all_cols[unique]
        self.nnz = int(self.rows.size)
        #: CSC structure, int32 so SuperLU takes it without a per-solve cast.
        self.indices = self.rows.astype(np.int32)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=size), out=indptr[1:])
        self.indptr = indptr.astype(np.int32)
        self._keys = self.cols * size + self.rows  # ascending by construction
        #: Row-major flat position of every entry in an ``(n, n)`` matrix.
        self.dense_pos = self.rows * size + self.cols

        # Per-stamp-group position maps into the CSC data array.
        self.static_pos = self.positions(compiled._static_rows, compiled._static_cols)
        node_diag = np.arange(compiled.num_nodes)
        self.gmin_diag_pos = self.positions(node_diag, node_diag)
        if compiled.num_capacitors:
            a, b = compiled.cap_a, compiled.cap_b
            self.cap_pos = self.positions(
                np.concatenate((a, b, a, b)), np.concatenate((a, b, b, a))
            )
        else:
            self.cap_pos = None
        if compiled.num_mosfets:
            d, g, s = compiled.mos_d, compiled.mos_g, compiled.mos_s
            # The channel orientation (which diffusion terminal acts as the
            # drain) is decided per device per Newton iterate, so both
            # orientations' eight stamp positions are precomputed and the
            # assembly selects them with np.where(forward, ...).
            forward = self._mos_positions(d, s, g)
            reverse = self._mos_positions(s, d, g)
            # RHS rows of the companion current: oriented drain, then source.
            rhs = (size + 1, np.stack((d, s)), np.stack((s, d)))
            self.mos_csc: Optional[_StampTable] = _StampTable(
                (self.nnz + 1, forward, reverse), rhs
            )
        else:
            self.mos_csc = None

    def _mos_positions(self, drain: np.ndarray, source: np.ndarray, gate: np.ndarray) -> np.ndarray:
        """``(8, M)`` data positions of one orientation's stamp entries."""
        rows8 = np.stack((drain, source, drain, source, drain, drain, source, source))
        cols8 = np.stack((drain, source, source, drain, gate, source, gate, source))
        return self.positions(rows8, cols8)

    def positions(self, rows, cols) -> np.ndarray:
        """CSC data positions of ``(rows, cols)`` entries.

        Ghost (ground) entries map to the trash slot ``nnz``; a non-ghost
        entry missing from the pattern raises — that would mean the pattern
        no longer covers the compiled stamps.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        ghost = (rows >= self.size) | (cols >= self.size)
        keys = cols * self.size + rows
        pos = np.searchsorted(self._keys, keys)
        pos = np.where(ghost, self.nnz, pos)
        clipped = np.minimum(pos, self.nnz - 1) if self.nnz else pos
        hit = ghost | ((pos < self.nnz) & (self._keys[clipped] == keys))
        if not bool(np.all(hit)):
            raise RuntimeError(
                "sparsity pattern does not cover a compiled stamp entry; "
                "the compiled structure changed without a recompile"
            )
        return pos


class CompiledCircuit:
    """Precomputed index arrays for vectorized MNA assembly.

    Walks the circuit's elements once, grouping them by exact type:

    * resistors and voltage-source branch structure become a static COO
      triplet folded into cached base pattern data;
    * capacitors become index/value arrays for companion-model stamping;
    * MOSFETs become terminal-index and parameter arrays evaluated with the
      vectorized level-1 model of :func:`repro.spice.elements.mosfet.evaluate_level1_arrays`;
    * independent sources become row/node arrays plus waveform references
      (re-read on every solve, so ``set_level`` during sweeps is honoured; a
      fixed-step march samples them on its whole grid once, see
      :meth:`_source_table`);
    * any other element, a subclass of these five included, is rejected
      with ``TypeError``.

    Every assembly runs one kernel over the compiled stamps
    (:meth:`_scatter`, on one iterate or a stack of them) into CSC data at
    positions the topology's :class:`SparsityPattern` precomputes: the
    sparse assemblies return that data, the dense ones place it into
    zeroed matrices at :attr:`SparsityPattern.dense_pos`, so dense and
    sparse results are bit-identical by construction.  Each call returns fresh arrays.
    """

    #: Linear bases retained per (gmin, timestep, integration)
    #: context; LRU-bounded so gmin/timestep studies do not accumulate
    #: memory per visited context.
    BASE_CACHE_LIMIT = 8

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.revision = circuit.revision
        self.num_nodes = circuit.num_nodes
        self.size = circuit.system_size
        ghost = self.size + 1

        resistors: List[Resistor] = []
        capacitors: List[Capacitor] = []
        mosfets: List[MOSFET] = []
        self.voltage_sources: List[VoltageSource] = []
        self.current_sources: List[CurrentSource] = []
        for element in circuit.elements:
            kind = type(element)
            if kind is Resistor:
                resistors.append(element)
            elif kind is Capacitor:
                capacitors.append(element)
            elif kind is MOSFET:
                mosfets.append(element)
            elif kind is VoltageSource:
                self.voltage_sources.append(element)
            elif kind is CurrentSource:
                self.current_sources.append(element)
            else:
                raise TypeError(
                    f"element {element.name!r} of type "
                    f"{kind.__name__} cannot be compiled: the engine analyses "
                    "only Resistor, Capacitor, MOSFET, VoltageSource and "
                    "CurrentSource (exact types, not subclasses)"
                )

        # All compiled node indices are stored with ground (-1) remapped to
        # the ghost slot ``size``, so gathers and flat-index scatters need no
        # special-casing (the ghost row/column is trimmed before the solve).
        def gi(index: int) -> int:
            return index if index >= 0 else self.size

        # Static stamps: resistor conductances + voltage-source branch rows.
        self.resistors = resistors
        self.mosfets = mosfets
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for resistor in resistors:
            a, b, g = gi(resistor._node_a), gi(resistor._node_b), resistor.conductance
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [g, g, -g, -g]
        self.vs_rows = np.array(
            [self.num_nodes + source._branch for source in self.voltage_sources], dtype=int
        )
        for source, row in zip(self.voltage_sources, self.vs_rows):
            plus, minus = gi(source._node_plus), gi(source._node_minus)
            rows += [row, plus, row, minus]
            cols += [plus, row, minus, row]
            vals += [1.0, 1.0, -1.0, -1.0]
        self._static_rows = np.array(rows, dtype=int)
        self._static_cols = np.array(cols, dtype=int)
        self._static_vals = np.array(vals, dtype=float)

        self.is_plus = np.array([gi(s._node_plus) for s in self.current_sources], dtype=int)
        self.is_minus = np.array([gi(s._node_minus) for s in self.current_sources], dtype=int)

        self.capacitors = capacitors
        self.cap_a = np.array([gi(c._node_a) for c in capacitors], dtype=int)
        self.cap_b = np.array([gi(c._node_b) for c in capacitors], dtype=int)
        self.cap_c = np.array([c.capacitance_f for c in capacitors], dtype=float)
        self.cap_v0 = np.array([c.initial_voltage_v for c in capacitors], dtype=float)
        #: RHS rows of the linear right-hand side, in stamp order: voltage
        #: source branches, current sources (plus nodes, then minus), then
        #: capacitor history currents (a nodes, then b).  A DC solve, which
        #: has no history currents, uses the prefix before the capacitors.
        self._rhs_rows = np.concatenate(
            (self.vs_rows, self.is_plus, self.is_minus, self.cap_a, self.cap_b)
        )

        self.mos_d = np.array([gi(m._drain) for m in mosfets], dtype=int)
        self.mos_g = np.array([gi(m._gate) for m in mosfets], dtype=int)
        self.mos_s = np.array([gi(m._source) for m in mosfets], dtype=int)
        self.mos_beta = np.array([m.parameters.beta for m in mosfets], dtype=float)
        self.mos_vth = np.array([m.parameters.vth_v for m in mosfets], dtype=float)
        self.mos_lambda = np.array([m.parameters.lambda_per_v for m in mosfets], dtype=float)
        self.mos_gmin = np.array([m.CHANNEL_GMIN for m in mosfets], dtype=float)
        self.mos_w = np.array([m.SMOOTHING_V for m in mosfets], dtype=float)
        #: ``(3, M)`` drain/gate/source rows: one gather reads every
        #: terminal voltage.
        self._mos_terminals = np.stack((self.mos_d, self.mos_g, self.mos_s))

        self.num_mosfets = len(mosfets)
        self.num_capacitors = len(capacitors)
        self._ghost = ghost
        self._base_data_cache: Dict[Hashable, np.ndarray] = {}
        #: Preallocated per-round scratch buffers of the assembly kernel
        #: (see :meth:`_workspace`); keyed by buffer role.
        self._workspaces: Dict[str, np.ndarray] = {}
        self._pattern: Optional[SparsityPattern] = None
        #: Whether stacked assemblies keep their position tables; set while
        #: an analysis driver runs (:func:`_holding_stacked_tables`).
        self._hold_stacked = False
        #: Per-source waveform multipliers (``None`` means all-ones).
        self.vs_scale: Optional[np.ndarray] = None
        self.is_scale: Optional[np.ndarray] = None
        self._overlay: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # parameter overlays (Monte Carlo / corner analysis)
    # ------------------------------------------------------------------ #

    def _parameter_lengths(self) -> Dict[str, int]:
        return {
            "mos_vth": self.num_mosfets,
            "mos_beta": self.num_mosfets,
            "mos_lambda": self.num_mosfets,
            "resistor_ohm": len(self.resistors),
            "cap_c": self.num_capacitors,
            "vsource_scale": len(self.voltage_sources),
            "isource_scale": len(self.current_sources),
        }

    def nominal_parameters(self) -> Dict[str, np.ndarray]:
        """The element-derived nominal value of every perturbable vector.

        Monte-Carlo samplers perturb around these; the arrays are fresh
        copies, so mutating them never touches the compiled state.
        """
        return {
            "mos_vth": np.array([m.parameters.vth_v for m in self.mosfets], dtype=float),
            "mos_beta": np.array([m.parameters.beta for m in self.mosfets], dtype=float),
            "mos_lambda": np.array(
                [m.parameters.lambda_per_v for m in self.mosfets], dtype=float
            ),
            "resistor_ohm": np.array(
                [r.resistance_ohm for r in self.resistors], dtype=float
            ),
            "cap_c": np.array([c.capacitance_f for c in self.capacitors], dtype=float),
            "vsource_scale": np.ones(len(self.voltage_sources)),
            "isource_scale": np.ones(len(self.current_sources)),
        }

    def set_parameter_overlay(self, overlay: Mapping[str, Sequence[float]]) -> None:
        """Replace compiled parameter vectors without touching the elements.

        ``overlay`` maps names from :data:`PERTURBABLE_PARAMETERS` to one
        value per element of that class.  The overlay persists across
        :meth:`refresh_values` (so it survives the per-solve refresh of the
        analyses) until :meth:`clear_parameter_overlay` restores the
        element-derived nominals.  This is the Monte-Carlo fast path: a
        trial swaps parameter arrays in place instead of re-walking the
        netlist or mutating element objects.
        """
        lengths = self._parameter_lengths()
        cleaned: Dict[str, np.ndarray] = {}
        for name, values in overlay.items():
            if name not in lengths:
                raise ValueError(
                    f"unknown parameter {name!r}; expected one of {PERTURBABLE_PARAMETERS}"
                )
            array = np.array(values, dtype=float)
            if array.shape != (lengths[name],):
                raise ValueError(
                    f"{name!r} overlay has shape {array.shape}, expected ({lengths[name]},)"
                )
            _check_parameter_values(name, array)
            cleaned[name] = array
        self._overlay = cleaned or None
        self.refresh_values()

    def clear_parameter_overlay(self) -> None:
        """Drop the active overlay and restore element-derived values."""
        if self._overlay is not None:
            self._overlay = None
            self.refresh_values()

    def __getstate__(self):
        # The base-data LRU, the pattern and the workspaces are lazily
        # rebuilt; shipping them to process-pool workers is pure dead
        # weight, so pickling drops them.
        state = self.__dict__.copy()
        state["_base_data_cache"] = {}
        state["_pattern"] = None
        state["_workspaces"] = {}
        return state

    def _workspace(self, name: str, rows: int, cols: int, zero: bool = False) -> np.ndarray:
        """A reusable ``(rows, cols)`` scratch view for the assembly kernel.

        Every Newton round re-assembles; these capacity-grown buffers kill
        the per-round allocation churn of the kernel's intermediates.  The
        returned view is only valid until the next call with the same
        ``name``, so no assembly hands one out.
        """
        buffer = self._workspaces.get(name)
        if buffer is None or buffer.shape[0] < rows or buffer.shape[1] != cols:
            capacity = rows
            if buffer is not None and buffer.shape[1] == cols:
                capacity = max(rows, buffer.shape[0])
            buffer = np.empty((capacity, cols))
            self._workspaces[name] = buffer
        view = buffer[:rows]
        if zero:
            view.fill(0.0)
        return view

    @staticmethod
    def _element_values(
        name: str, elements: Sequence, attribute: str, sources: Optional[Sequence] = None
    ) -> np.ndarray:
        """``attribute`` of every element (or of its ``sources`` entry), checked.

        The vector must pass ``name``'s value rule (:func:`_value_rule`);
        the ``ValueError`` names the first element that breaks it, so a
        value mutated in place after construction fails at the next solve.
        """
        values = np.array(
            [getattr(source, attribute) for source in (sources or elements)], dtype=float
        )
        bad, rule = _value_rule(name, values)
        if np.any(bad):
            index = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"element {elements[index].name!r}: {name} must be {rule}; "
                f"got {float(values[index])!r}"
            )
        return values

    def refresh_values(self) -> None:
        """Re-read element *values* without recompiling the structure.

        The compiled arrays snapshot element parameters (conductances,
        capacitances, MOSFET parameter sets); topology changes are caught
        through the circuit revision, but in-place parameter mutation (e.g.
        ``resistor.resistance_ohm = ...`` between runs) is not.  The
        analyses therefore call this once per solve: it rebuilds the value
        arrays (cheap — a few reads per element) and drops the cached base
        data only when something actually changed.  An active parameter
        overlay (:meth:`set_parameter_overlay`) takes precedence over the
        element values it covers, so Monte-Carlo trials survive the refresh.
        Every value it re-reads from the elements must pass the overlay
        value rules (:func:`_value_rule`); a ``ValueError`` names the first
        element that breaks them, before any factorization.
        """
        overlay = self._overlay or {}
        if self.resistors:
            resistance = overlay.get("resistor_ohm")
            if resistance is None:
                resistance = self._element_values(
                    "resistor_ohm", self.resistors, "resistance_ohm"
                )
            conductances = 1.0 / resistance
            n4 = 4 * len(self.resistors)
            new_vals = (conductances[:, None] * _RESISTOR_SIGNS).ravel()
            if not np.array_equal(new_vals, self._static_vals[:n4]):
                self._static_vals = np.concatenate((new_vals, self._static_vals[n4:]))
                self._base_data_cache.clear()
        if self.capacitors:
            new_c = overlay.get("cap_c")
            if new_c is None:
                new_c = self._element_values("cap_c", self.capacitors, "capacitance_f")
            if not np.array_equal(new_c, self.cap_c):
                self.cap_c = new_c
                self._base_data_cache.clear()
            if not overlay:
                self.cap_v0 = self._element_values(
                    "cap_v0", self.capacitors, "initial_voltage_v"
                )
        if self.mosfets:
            beta = overlay.get("mos_beta")
            vth = overlay.get("mos_vth")
            lam = overlay.get("mos_lambda")
            parameters = [m.parameters for m in self.mosfets]
            self.mos_beta = (
                beta
                if beta is not None
                else self._element_values("mos_beta", self.mosfets, "beta", parameters)
            )
            self.mos_vth = (
                vth
                if vth is not None
                else self._element_values("mos_vth", self.mosfets, "vth_v", parameters)
            )
            self.mos_lambda = (
                lam
                if lam is not None
                else self._element_values(
                    "mos_lambda", self.mosfets, "lambda_per_v", parameters
                )
            )
            if not overlay:
                # gmin/smoothing (and cap_v0 above) are not perturbable, so
                # the per-trial overlay refresh — the Monte-Carlo hot path —
                # skips their per-element Python walks; nominal refreshes
                # keep honouring in-place element mutation as before.
                self.mos_gmin = self._element_values("mos_gmin", self.mosfets, "CHANNEL_GMIN")
                self.mos_w = self._element_values("mos_w", self.mosfets, "SMOOTHING_V")
        self.vs_scale = overlay.get("vsource_scale")
        self.is_scale = overlay.get("isource_scale")

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #

    def _capacitor_conductance(
        self, timestep_s: float, integration: str, cap_c: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Capacitor companion conductances ``factor * C / h``.

        ``(C,)`` from the compiled ``cap_c``, or ``(trials, C)`` for a
        stacked ``cap_c``; one elementwise formula, so a trial's
        conductances are bit-identical to a serial assembly with that
        trial's cap_c overlay.
        """
        factor = 2.0 if integration == "trap" else 1.0
        if cap_c is None:
            return factor * self.cap_c / timestep_s
        return factor * np.asarray(cap_c, dtype=float) / timestep_s

    def _cap_voltage(self, iterate: np.ndarray) -> np.ndarray:
        """Capacitor voltages ``v(a) - v(b)``: ``(C,)`` or ``(trials, C)``."""
        padded = self._pad(iterate)
        return padded.take(self.cap_a, axis=-1) - padded.take(self.cap_b, axis=-1)

    def _cap_dv(self, now: np.ndarray, prev: Optional[np.ndarray]) -> np.ndarray:
        """Capacitor voltage change from ``prev`` to ``now``.

        Takes ``(n,)`` iterates or ``(trials, n)`` stacks and returns
        ``(C,)`` or ``(trials, C)``.  ``prev=None`` (a march from initial
        conditions) reads the previous voltages from :attr:`cap_v0`.
        """
        before = self.cap_v0 if prev is None else self._cap_voltage(prev)
        return self._cap_voltage(now) - before

    def sparsity_pattern(self) -> "SparsityPattern":
        """The shared CSC pattern of this topology, built once and cached."""
        if self._pattern is None:
            self._pattern = SparsityPattern(self)
        return self._pattern

    def _base_data(
        self,
        gmin: float,
        timestep_s: Optional[float],
        integration: str,
        cache: bool = True,
    ) -> np.ndarray:
        """The cached linear part of the Jacobian as ``(nnz + 1,)`` pattern data.

        The data is accumulated in a fixed order: static entries, then the
        gmin diagonal, then the capacitor companions, and ends in a zero
        trash slot.  The stacked perturbed-parameter path
        (:meth:`_stacked_linear_data`) repeats the accumulation order per
        trial, so a trial's linear part is bit-identical to this base under
        its overlay.  Callers only read the returned array.

        ``cache=False`` builds the base without retaining it — used for the
        one-off bumped-gmin retries after a singular solve, which would
        otherwise grow the cache with contexts that are never reused.
        """
        key = (gmin, timestep_s, integration if timestep_s is not None else "dc")
        bases = self._base_data_cache
        data = bases.get(key)
        if data is not None:
            # LRU touch: re-insert so timestep/gmin studies evict the
            # least-recently-used context first.
            del bases[key]
            bases[key] = data
            return data
        pattern = self.sparsity_pattern()
        data = np.zeros(pattern.nnz + 1)
        if self._static_rows.size:
            np.add.at(data, pattern.static_pos, self._static_vals)
        data[pattern.gmin_diag_pos] += gmin
        if timestep_s is not None and self.num_capacitors:
            g = self._capacitor_conductance(timestep_s, integration)
            np.add.at(data, pattern.cap_pos, np.concatenate((g, g, -g, -g)))
        data[pattern.nnz] = 0.0
        if cache:
            if len(bases) >= self.BASE_CACHE_LIMIT:
                bases.pop(next(iter(bases)))
            bases[key] = data
        return data

    def _row_inputs(
        self,
        gmin: float,
        timestep_s: Optional[float],
        integration: str,
        cache_base: bool = True,
    ) -> _KernelInputs:
        """The per-call invariants of a serial assembly (see :class:`_KernelInputs`).

        The base data is :meth:`_base_data`'s for the context, the MOSFET
        parameters the compiled vectors; the padded buffer is fresh, with
        its ghost slot zeroed.
        """
        padded = np.empty(self._ghost)
        padded[self.size] = 0.0
        return _KernelInputs(
            self._base_data(gmin, timestep_s, integration, cache_base),
            self.mos_beta,
            self.mos_vth,
            self.mos_lambda,
            padded,
        )

    def _stack_inputs(
        self,
        trials: int,
        params: Mapping[str, np.ndarray],
        gmin: Union[float, np.ndarray],
        timestep_s: Optional[float],
        integration: str,
        cap_g_rows: Optional[np.ndarray] = None,
    ) -> _KernelInputs:
        """The per-call invariants of a stacked assembly (see :class:`_KernelInputs`).

        The base data is :meth:`_stacked_linear_data`'s for the stack, its
        ``gmin`` (scalar or per trial) and ``cap_g_rows``, the MOSFET
        parameters the ``params`` stacks or the compiled vectors, the stamp
        tables :meth:`_StampTable.stacked`'s, the padded buffer the
        kernel's padding workspace (:meth:`_workspace`) with its ghost
        column zeroed.
        """
        padded = self._workspace("padded", trials, self._ghost)
        padded[:, self.size] = 0.0
        table = self.sparsity_pattern().mos_csc
        forward, reverse = (
            (None, None) if table is None else table.stacked(trials, self._hold_stacked)
        )
        return _KernelInputs(
            self._stacked_linear_data(
                trials, params, gmin, timestep_s, integration, cap_g_rows, True
            ),
            params.get("mos_beta", self.mos_beta),
            params.get("mos_vth", self.mos_vth),
            params.get("mos_lambda", self.mos_lambda),
            padded,
            forward,
            reverse,
        )

    def _waveform_values(
        self, time_s: float, scale: float
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``scale`` times every independent source's waveform at ``time_s``.

        Returns ``(v_values, i_values)``, ``None`` for a class of source the
        circuit does not have; no per-source overlay multiplier is applied.
        """

        def values(sources) -> Optional[np.ndarray]:
            if not sources:
                return None
            levels = np.array([source.waveform.value(time_s) for source in sources], dtype=float)
            # x * 1.0 is x bit for bit, so full drive skips the product.
            return levels if scale == 1.0 else scale * levels

        return values(self.voltage_sources), values(self.current_sources)

    def _source_table(
        self, times: np.ndarray, scale: float = 1.0
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """:meth:`_waveform_values` at every time of ``times``, in one table.

        Returns ``(v_table, i_table)``, ``(T, V)`` and ``(T, I)`` or
        ``None`` like :meth:`_waveform_values`, whose values row ``k`` holds
        bit for bit at ``times[k]``.  A fixed-step march builds it once for
        its grid (:func:`~repro.spice.waveforms._sample`) and reads one row
        per step instead of calling every waveform.
        """

        def table(sources) -> Optional[np.ndarray]:
            if not sources:
                return None
            levels = np.stack([_sample(source.waveform, times) for source in sources], axis=1)
            return levels if scale == 1.0 else scale * levels

        return table(self.voltage_sources), table(self.current_sources)

    def _pad(self, iterate: np.ndarray) -> np.ndarray:
        """Append the ghost (ground) slot so index -1 gathers 0.

        A ``(trials, n)`` stack pads into a reused workspace: callers only
        gather (copy) from it before the next pad.
        """
        if iterate.ndim == 1:
            padded = np.empty(self._ghost)
            padded[: self.size] = iterate
            padded[self.size] = 0.0
            return padded
        padded = self._workspace("padded", iterate.shape[0], self._ghost)
        padded[:, : self.size] = iterate
        padded[:, self.size] = 0.0
        return padded

    @staticmethod
    def _add_rows(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
        """``target[..., index] += values`` for ``(width,)`` or ``(trials,
        width)`` targets; every row accumulates repeated indices in order."""
        if target.ndim == 1:
            np.add.at(target, index, values)
        else:
            np.add.at(target, (np.arange(target.shape[0])[:, None], index), values)

    def assemble(
        self,
        state: AnalysisState,
        source_scale: float = 1.0,
        cap_history: Optional[np.ndarray] = None,
        cache_base: bool = True,
        linear_rhs: Optional[np.ndarray] = None,
        row_inputs: Optional[_KernelInputs] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized system at ``state`` as a dense matrix.

        Returns a fresh ``(n, n)`` matrix and ghost-trimmed right-hand side,
        ready for a dense LAPACK solve (:class:`~repro.spice.solvers.DenseSolver`):
        the kernel's (:meth:`_scatter`) pattern data placed into a zeroed
        matrix, so every entry on the pattern is bit-identical to
        :meth:`assemble_sparse` and every entry off it is exactly zero.

        ``source_scale`` scales every independent source (used by the
        source-stepping fallback).  ``cap_history`` supplies the trapezoidal
        capacitor history currents; when omitted they are zero, the history
        every march starts from.  ``cache_base=False`` builds the linear
        base without caching it (one-off gmin retries).

        ``linear_rhs`` lets the Newton loop hand in the per-solve invariant
        part of the right-hand side — sources plus capacitor history, as
        :meth:`_linear_rhs` builds it (ghost slot included) — computed once
        per solve instead of once per iteration.  The assembly only reads
        it; when omitted it is built here (identical values either way).
        ``row_inputs`` likewise hands in the call's other invariants
        (:class:`_KernelInputs`, built by :meth:`_row_inputs` for the state's
        gmin, timestep and integration); the assembly then reads the linear
        base from it instead of the cache, and ignores ``cache_base``.
        """
        data, rhs = self._scatter(
            state.solution, None, state.gmin, state.time_s, source_scale,
            state.timestep_s, state.integration, state.previous_solution,
            cap_history, linear_rhs, cache_base=cache_base, inputs=row_inputs,
        )
        pattern = self.sparsity_pattern()
        matrix = np.zeros((self.size, self.size))
        matrix.reshape(-1)[pattern.dense_pos] = data[: pattern.nnz]
        return matrix, rhs[: self.size]

    def assemble_sparse(
        self,
        state: AnalysisState,
        source_scale: float = 1.0,
        cap_history: Optional[np.ndarray] = None,
        cache_base: bool = True,
        linear_rhs: Optional[np.ndarray] = None,
        row_inputs: Optional[_KernelInputs] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized system at ``state`` as CSC pattern data.

        Same arguments as :meth:`assemble`, but no ``(n, n)`` matrix is ever
        formed: returns fresh ``(data, rhs)`` where ``data`` is the
        ``(nnz,)`` value array of :meth:`sparsity_pattern` and ``rhs`` the
        ghost-trimmed right-hand side.
        """
        data, rhs = self._scatter(
            state.solution, None, state.gmin, state.time_s, source_scale,
            state.timestep_s, state.integration, state.previous_solution,
            cap_history, linear_rhs, cache_base=cache_base, inputs=row_inputs,
        )
        return data[: self.sparsity_pattern().nnz], rhs[: self.size]

    def assemble_batched(
        self,
        solutions: np.ndarray,
        params: Optional[Mapping[str, np.ndarray]] = None,
        gmin: Union[float, np.ndarray] = 1e-9,
        time_s: float = 0.0,
        source_scale: float = 1.0,
        timestep_s: Optional[float] = None,
        integration: str = "be",
        previous_solutions: Optional[np.ndarray] = None,
        cap_history: Optional[np.ndarray] = None,
        linear_rhs: Optional[np.ndarray] = None,
        cap_g_rows: Optional[np.ndarray] = None,
        stack_inputs: Optional[_KernelInputs] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(trials, n, n)`` systems for stacked parameter sets.

        ``solutions`` is the ``(trials, n)`` stack of Newton iterates;
        ``params`` maps perturbable parameter names (see
        :data:`PERTURBABLE_PARAMETERS`) to ``(trials, count)`` stacks — any
        parameter not given uses the compiled (possibly overlaid) value
        vector for every trial.  The kernel (:meth:`_scatter`) bins every
        trial's stamps into its own row of pattern data, placed into its own
        matrix, so row ``t`` is bit-identical to a serial :meth:`assemble`
        with trial ``t``'s parameters; this is what makes the batched
        Monte-Carlo path reproduce the per-trial path exactly.

        With ``timestep_s`` set the assembly includes the capacitor
        companion models of the selected ``integration``:
        ``previous_solutions`` is the ``(trials, n)`` stack of the last
        accepted time point (``cap_v0`` when omitted, matching the serial
        path's first-step semantics) and ``cap_history`` the ``(trials,
        num_capacitors)`` trapezoidal history currents.  ``linear_rhs``
        optionally hands in the ``(trials, n + 1)`` linear right-hand side
        (:meth:`_linear_rhs`) that a Newton loop builds once per call; the
        assembly only reads it and then ignores ``time_s``,
        ``source_scale``, ``previous_solutions`` and ``cap_history``.
        ``cap_g_rows`` optionally hands in the per-trial capacitor companion
        conductances.  ``stack_inputs`` hands in the call's other
        invariants (:class:`_KernelInputs`, built by :meth:`_stack_inputs`
        for the stack's parameters, gmin, timestep and integration), which
        a Newton loop resolves once for all its rounds; the assembly then
        reads the linear base, the MOSFET parameters and the stamp tables
        from it instead of ``params`` and ``gmin``.  When omitted they are
        built here, from the arguments (identical values either way).  The
        returned arrays are fresh on every call.
        """
        data, rhs = self._scatter(
            self._check_solution_stack(solutions), params, gmin, time_s, source_scale,
            timestep_s, integration, previous_solutions, cap_history, linear_rhs,
            cap_g_rows, inputs=stack_inputs,
        )
        pattern = self.sparsity_pattern()
        matrices = np.zeros((data.shape[0], self.size, self.size))
        matrices.reshape(data.shape[0], -1)[:, pattern.dense_pos] = data[:, : pattern.nnz]
        return matrices, rhs[:, : self.size]

    def assemble_sparse_batched(
        self,
        solutions: np.ndarray,
        params: Optional[Mapping[str, np.ndarray]] = None,
        gmin: Union[float, np.ndarray] = 1e-9,
        time_s: float = 0.0,
        source_scale: float = 1.0,
        timestep_s: Optional[float] = None,
        integration: str = "be",
        previous_solutions: Optional[np.ndarray] = None,
        cap_history: Optional[np.ndarray] = None,
        linear_rhs: Optional[np.ndarray] = None,
        cap_g_rows: Optional[np.ndarray] = None,
        stack_inputs: Optional[_KernelInputs] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(trials, nnz)`` CSC data stacks for stacked trials.

        Same arguments as :meth:`assemble_batched`, but returns the pattern
        data itself, so the memory footprint is ``trials * nnz`` rather
        than ``trials * n^2``.  Row ``t`` of the returned ``data`` is
        bit-identical to :meth:`assemble_sparse` with trial ``t``'s
        parameters.
        """
        data, rhs = self._scatter(
            self._check_solution_stack(solutions), params, gmin, time_s, source_scale,
            timestep_s, integration, previous_solutions, cap_history, linear_rhs,
            cap_g_rows, inputs=stack_inputs,
        )
        return data[:, : self.sparsity_pattern().nnz], rhs[:, : self.size]

    def _check_solution_stack(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=float)
        if solutions.ndim != 2 or solutions.shape[1] != self.size:
            raise ValueError(
                f"solutions stack has shape {solutions.shape}, expected "
                f"(trials, {self.size})"
            )
        return solutions

    def _scatter(
        self,
        solutions: np.ndarray,
        params: Optional[Mapping[str, np.ndarray]],
        gmin: Union[float, np.ndarray],
        time_s: float,
        source_scale: float,
        timestep_s: Optional[float],
        integration: str,
        previous_solutions: Optional[np.ndarray],
        cap_history: Optional[np.ndarray],
        linear_rhs: Optional[np.ndarray],
        cap_g_rows: Optional[np.ndarray] = None,
        cache_base: bool = True,
        inputs: Optional[_KernelInputs] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The assembly kernel: fresh system and RHS rows, trash slots included.

        ``solutions`` is one ``(n,)`` iterate, which assembles with the
        compiled values, or a ``(trials, n)`` stack with its ``params``
        stacks and the trial axis in front.  Returns ``(data, rhs)``: a data
        row has the ``nnz + 1`` CSC slots, an RHS row ``n + 1``.

        The kernel evaluates the MOSFET companions at the iterate and lays
        out their eight conductance groups and two current groups in the
        row order of the pattern's :class:`_StampTable`.  One ``np.where``
        picks every device's orientation from the table, and one
        ``np.bincount`` bins all ten groups into a fresh array holding the
        data row and the RHS row side by side.  Then it adds the linear
        base (:meth:`_base_data`, or :meth:`_stacked_linear_data` for a
        stack) and the linear right-hand side.  Every entry is thus ``base
        + (0.0 + c1 + c2 + ...)`` with the stamps in ravel order, on a
        stacked row as on a lone iterate, so serial and stacked results are
        bit-identical.  A per-trial ``gmin`` (bumped after singular solves)
        takes uncached bases, as ``cache_base=False`` does for a scalar one.
        A stack always reads its base, MOSFET parameters, padded buffer and
        stamp tables from ``inputs`` (:meth:`_stack_inputs`), built here
        from the arguments when the caller does not hand them in; a lone
        iterate does so only when handed its own (:meth:`_row_inputs`).
        """
        params = params or {}
        lead = solutions.shape[:-1]
        if lead and inputs is None:
            inputs = self._stack_inputs(
                lead[0], params, gmin, timestep_s, integration, cap_g_rows
            )
        if inputs is None:
            base = self._base_data(gmin, timestep_s, integration, cache_base)
        else:
            base = inputs.base
        if linear_rhs is None:
            linear_rhs = self._linear_rhs(
                lead, params, time_s, source_scale, timestep_s, integration,
                previous_solutions, cap_history, cap_g_rows,
            )
        if not self.num_mosfets:
            return (
                np.array(np.broadcast_to(base, lead + base.shape[-1:])),
                np.array(linear_rhs),
            )

        if inputs is None:
            forward, gds, gm, i_eq = self._mosfet_companion(
                self._pad(solutions), self.mos_beta, self.mos_vth, self.mos_lambda
            )
        else:
            padded = inputs.padded[: lead[0]] if lead else inputs.padded
            padded[..., : self.size] = solutions
            forward, gds, gm, i_eq = self._mosfet_companion(
                padded, inputs.beta, inputs.vth, inputs.lam
            )
        # The ten stamp groups in the row order of the position tables (see
        # SparsityPattern._mos_positions), so the stamps that share a cell
        # accumulate in one fixed order on every path.
        ngds, ngm = -gds, -gm
        stamps = np.concatenate((gds, gds, ngds, ngds, gm, ngm, ngm, gm, -i_eq, i_eq), axis=-1)
        table = self.sparsity_pattern().mos_csc
        if lead:
            count = lead[0]
            positions_forward = inputs.forward[:count]
            positions_reverse = inputs.reverse[:count]
            forward = forward[:, np.newaxis, :]
        else:
            count = 1
            positions_forward, positions_reverse = table.forward, table.reverse
        rows = np.bincount(
            np.where(forward, positions_forward, positions_reverse).ravel(),
            weights=stamps.ravel(),
            minlength=count * table.width,
        )
        if lead:
            rows = rows.reshape(count, table.width)
        data = rows[..., : table.split]
        rhs = rows[..., table.split :]
        data += base
        rhs += linear_rhs
        return data, rhs

    def _stacked_linear_data(
        self,
        trials: int,
        params: Mapping[str, np.ndarray],
        gmin: Union[float, np.ndarray],
        timestep_s: Optional[float],
        integration: str,
        cap_g_rows: Optional[np.ndarray],
        cache_base: bool,
    ) -> np.ndarray:
        """The pattern-data linear part of a stacked assembly.

        When no stack perturbs the linear part (no ``resistor_ohm`` rows,
        and no ``cap_c`` rows if this is a transient assembly), every trial
        shares the cached nominal :meth:`_base_data`: one row that
        broadcasts over the stack, or under a per-trial ``gmin`` one
        uncached base row per trial.  Otherwise the ``(trials, nnz + 1)``
        linear data is re-accumulated per trial in the base data's order.
        Callers only read the result.
        """
        resistance = params.get("resistor_ohm")
        cap_c = params.get("cap_c") if timestep_s is not None else None
        if resistance is None and cap_c is None:
            if not np.ndim(gmin):
                return self._base_data(gmin, timestep_s, integration, cache_base)
            values, trial_value = np.unique(gmin, return_inverse=True)
            bases = [
                self._base_data(float(value), timestep_s, integration, False)
                for value in values
            ]
            return np.stack(bases)[trial_value]

        # Per trial in the base-data accumulation order: static entries, then
        # the gmin diagonal, then the capacitor companions.
        pattern = self.sparsity_pattern()
        data = self._workspace("linear_data", trials, pattern.nnz + 1, zero=True)
        if self._static_rows.size:
            vals = np.tile(self._static_vals, (trials, 1))
            if resistance is not None:
                conductance = 1.0 / np.asarray(resistance, dtype=float)
                n4 = 4 * len(self.resistors)
                vals[:, :n4] = (conductance[:, :, None] * _RESISTOR_SIGNS).reshape(-1, n4)
            self._add_rows(data, pattern.static_pos, vals)
        data[:, pattern.gmin_diag_pos] += np.reshape(gmin, (-1, 1))
        if timestep_s is not None and self.num_capacitors:
            g = cap_g_rows
            if g is None:
                g = self._capacitor_conductance(timestep_s, integration, cap_c)
            self._add_rows(data, pattern.cap_pos, np.concatenate((g, g, -g, -g), axis=-1))
        data[:, pattern.nnz] = 0.0
        return data

    def _linear_rhs(
        self,
        lead: Tuple[int, ...],
        params: Mapping[str, np.ndarray],
        time_s: float,
        source_scale: float,
        timestep_s: Optional[float],
        integration: str,
        previous_solutions: Optional[np.ndarray],
        cap_history: Optional[np.ndarray],
        cap_g_rows: Optional[np.ndarray] = None,
        source_levels: Optional[Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """The linear right-hand side: sources plus capacitor history.

        ``(n + 1,)`` for ``lead == ()``, or ``(trials, n + 1)`` for ``lead
        == (trials,)`` with ``params`` stacks, each row on its own trial.
        It depends on neither the iterate nor gmin, so a Newton loop builds
        it once per call.  ``previous_solutions=None`` takes the previous
        capacitor voltages from :attr:`cap_v0`; ``cap_g_rows`` optionally
        hands in the companion conductances.  ``source_levels`` optionally
        hands in the scaled source values at ``time_s`` (a row of each
        :meth:`_source_table`), which ``time_s`` and ``source_scale`` would
        otherwise give through :meth:`_waveform_values`.
        """
        if source_levels is None:
            source_levels = self._waveform_values(time_s, source_scale)
        v_values, i_values = source_levels
        # Per-trial scale stacks compose exactly like the serial
        # vs_scale/is_scale overlay multipliers.
        parts: List[np.ndarray] = []
        if v_values is not None:
            vs_scale = params.get("vsource_scale", self.vs_scale)
            if vs_scale is not None:
                v_values = v_values * vs_scale
            parts.append(v_values)
        if i_values is not None:
            is_scale = params.get("isource_scale", self.is_scale)
            if is_scale is not None:
                i_values = i_values * is_scale
            parts += [-i_values, i_values]

        # Capacitor companion history currents, added after the sources and
        # before the MOSFET stamps.
        if timestep_s is not None and self.num_capacitors:
            if cap_g_rows is None:
                cap_g_rows = self._capacitor_conductance(
                    timestep_s, integration, params.get("cap_c")
                )
            if previous_solutions is None:
                v_prev = self.cap_v0
            else:
                v_prev = self._cap_voltage(previous_solutions)
            i_eq = cap_g_rows * v_prev
            if integration == "trap" and cap_history is not None:
                i_eq = i_eq + cap_history
            parts += [i_eq, -i_eq]
        if not parts:
            return np.zeros(lead + (self._ghost,))
        # One bincount sums each row from +0.0 in stamp order; a stack bins
        # trial t's row k into cell t * (n + 1) + k.
        if not lead:
            weights = np.concatenate(parts)
            return np.bincount(self._rhs_rows[: weights.size], weights, minlength=self._ghost)
        trials = lead[0]
        weights = np.concatenate(
            [np.broadcast_to(part, (trials, part.shape[-1])) for part in parts], axis=1
        )
        rows = self._rhs_rows[: weights.shape[1]]
        cells = rows + np.arange(0, trials * self._ghost, self._ghost)[:, None]
        rhs = np.bincount(cells.ravel(), weights.ravel(), minlength=trials * self._ghost)
        return rhs.reshape(trials, self._ghost)

    def _mosfet_companion(
        self,
        padded: np.ndarray,
        beta: np.ndarray,
        vth: np.ndarray,
        lam: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-device linearized channel quantities at the padded iterate(s).

        ``padded`` is ``(size + 1,)`` or ``(trials, size + 1)``; returns
        ``(forward, gds, gm, i_eq)`` with matching leading shape.
        """
        terminals = padded.take(self._mos_terminals, axis=-1)
        vd = terminals[..., 0, :]
        vg = terminals[..., 1, :]
        vs = terminals[..., 2, :]
        # Orient every channel so its higher diffusion terminal is the drain
        # (the element does the same; the conduction is symmetric).
        forward = vd >= vs
        vgs = vg - np.where(forward, vs, vd)
        vds = np.abs(vd - vs)

        ids, gm, gds = evaluate_level1_arrays(vgs, vds, beta, vth, lam, self.mos_w)
        gds = gds + self.mos_gmin
        i_eq = ids - gm * vgs - gds * vds
        return forward, gds, gm, i_eq


def _holding_stacked_tables(driver: Callable) -> Callable:
    """Keep the stacked stamp tables across one analysis driver's rounds.

    A DC or march driver assembles its stack round after round, so its
    stacked position tables (:meth:`_StampTable.stacked`) are built once
    and kept while it runs.  They grow with trials times MOSFETs (128
    trials of the 1176-device n=399 lattice keep 24 MB), so they are
    dropped when the driver returns; a stacked assembly outside a driver
    builds them for that call only.
    """

    @functools.wraps(driver)
    def run(self: "AnalysisEngine", *args, **kwargs):
        compiled = self.compiled
        held, compiled._hold_stacked = compiled._hold_stacked, True
        try:
            return driver(self, *args, **kwargs)
        finally:
            compiled._hold_stacked = held
            pattern = compiled._pattern
            if not held and pattern is not None and pattern.mos_csc is not None:
                pattern.mos_csc.release()

    return run


class AnalysisEngine:
    """Shared Newton-Raphson solver over a compiled circuit.

    The engine owns the Newton loop and the convergence fallbacks; the
    analyses are thin drivers over them.  Every DC operating point runs
    one driver (plain damped Newton with its stall rule, then the
    gmin-stepping and source-stepping ladders) and every fixed-step
    transient one march, each on a stack of trials; a serial analysis is a
    stack of one.

    * :meth:`solve_dc` — the DC operating point, as a stack of one;
    * :meth:`dc_sweep` — repeated operating points with warm-start
      continuation, reusing the compiled structure across points;
    * :meth:`sweep_many` — a family of sweeps through one compiled circuit
      (per-point continuation inside each family, the previous family's
      solution seeding the next);
    * :meth:`solve_transient` — fixed-step (the lockstep march on a stack
      of one) or adaptive (LTE-controlled) integration with per-step
      Newton iteration and vectorized capacitor history updates;
    * :meth:`solve_dc_batched` — stacked same-pattern operating points
      (Monte-Carlo trials) through the same driver, solved in batched
      LAPACK calls;
    * :meth:`solve_transient_batched` — the same fixed-step march over
      stacked trials in lockstep: shared waveform evaluation per step,
      per-trial freeze-on-convergence, batched LAPACK Newton rounds.

    Every linear solve routes through a pluggable
    :class:`~repro.spice.solvers.LinearSolver` backend, chosen per call by
    each analysis's ``solver=`` (``"auto"`` when omitted).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._compiled: Optional[CompiledCircuit] = None

    @staticmethod
    def _counts_delta(after: Dict[str, int], before: Dict[str, int]) -> Tuple[int, int]:
        """(factorizations, reuses) performed between two counter snapshots."""
        return (
            after["factorizations"] - before["factorizations"],
            after["factorization_reuses"] - before["factorization_reuses"],
        )

    @property
    def compiled(self) -> CompiledCircuit:
        """The compiled structure, recompiled when the circuit changed.

        Recompiling while a parameter overlay is active raises instead of
        silently dropping the overlay: the perturbed vectors are sized for
        the old element population, so carrying them over could mislabel a
        Monte-Carlo trial or corner as nominal (or worse, misalign it).
        """
        if self._compiled is None or self._compiled.revision != self.circuit.revision:
            if self._compiled is not None and self._compiled._overlay is not None:
                raise RuntimeError(
                    "the circuit topology changed while a parameter overlay was "
                    "active; call AnalysisEngine.clear_parameter_overlay() (or "
                    "finish the Monte-Carlo/corner block) before adding elements "
                    "or nodes"
                )
            self._compiled = CompiledCircuit(self.circuit)
        return self._compiled

    def clear_parameter_overlay(self) -> None:
        """Drop any active parameter overlay without recompiling.

        The recovery path for the topology-changed-under-overlay error:
        unlike ``engine.compiled.clear_parameter_overlay()``, this works on
        the stale compiled object directly, so it cannot re-raise.
        """
        if self._compiled is not None:
            self._compiled.clear_parameter_overlay()

    # ------------------------------------------------------------------ #
    # the Newton loop (every DC solve and every transient step)
    # ------------------------------------------------------------------ #

    def _newton_batched(
        self,
        solutions: np.ndarray,
        params: Mapping[str, np.ndarray],
        *,
        gmin: float,
        max_iterations: int,
        tolerance_v: float,
        damping_v: float,
        solver: LinearSolver,
        time_s: float = 0.0,
        timestep_s: Optional[float] = None,
        previous_solutions: Optional[np.ndarray] = None,
        integration: str = "be",
        cap_history: Optional[np.ndarray] = None,
        cap_g_rows: Optional[np.ndarray] = None,
        source_scale: float = 1.0,
        source_levels: Optional[Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = None,
        reuse_states: Optional[List[_NewtonReuseState]] = None,
        stall_rounds: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Newton iteration over stacked systems; one linear solve per round.

        The engine's stacked Newton loop.  Mutates and returns ``solutions``
        (``(trials, n)``) with per-trial ``(iterations, converged,
        max_updates)``.  Each round assembles and solves the active trials,
        clamps every update to ``damping_v`` per unknown and tests it
        against ``tolerance_v``; a trial leaves the stack the moment it
        converges, so no row depends on the others.  ``solver`` is the
        concrete backend the caller selected.

        A singular trial keeps its iterate for the round, which still
        counts, and its own gmin rises an order of magnitude for the rest
        of the call.  ``stall_rounds`` (the plain DC run's
        :data:`NEWTON_STALL_ROUNDS`) stops a trial as not converged once
        that many rounds have passed since its smallest update; a singular
        round brings no new best.

        With ``timestep_s`` set this is one transient step:
        ``previous_solutions`` (``(trials, n)``; ``None``: the capacitors'
        initial voltages), ``cap_history`` (``(trials, C)``) and
        ``cap_g_rows`` carry the companion state, and the waveforms are
        evaluated once for the stack.  ``source_scale`` scales every
        independent source (the source-stepping ladder); ``source_levels``
        optionally hands in the scaled source values themselves (a march's
        :meth:`CompiledCircuit._source_table` row), in place of ``time_s``
        and ``source_scale``.

        ``reuse_states`` (one :class:`_NewtonReuseState` per row) runs
        per-trial modified Newton on the sparse backends: each active trial
        solves through its own state, which keeps its LU across rounds and
        across the calls of a march sharing the states.  Dense assembly
        ignores it, since LAPACK refactors on every call anyway.

        Its rows take the same float operations as :meth:`_newton_row`
        (bit-identical trial for trial); :meth:`_newton_loop` picks between
        the two.
        """
        trials = solutions.shape[0]
        compiled = self.compiled
        # Pattern-assembly backends (sparse) take CSC data stacks: trials *
        # nnz memory instead of trials * n^2.
        pattern = compiled.sparsity_pattern() if solver.wants_pattern_assembly else None
        if pattern is not None:
            assemble = compiled.assemble_sparse_batched
            solve_stack, solve_one = solver.solve_pattern_batched, solver.solve_pattern
        else:
            assemble = compiled.assemble_batched
            solve_stack, solve_one = solver.solve_batched, solver.solve
        use_reuse = reuse_states is not None and pattern is not None

        # Written as each trial leaves the stack or after the last round.
        iterations = np.empty(trials, dtype=int)
        max_updates = np.empty(trials)
        converged = np.zeros(trials, dtype=bool)
        # The active trials and their state, compressed as trials leave: the
        # update of the last solved round and, for the stall rule, the best
        # update and its round.  No trial can stall before round
        # stall_rounds, so until then the updates are only kept, then
        # replayed: most DC solves converge first and skip the bookkeeping.
        active = np.arange(trials)
        last_updates = np.full(trials, np.inf)
        unreplayed: List[np.ndarray] = []
        best_updates = best_rounds = None
        # Per-trial gmin, created by the first singular solve.
        gmins: Optional[np.ndarray] = None
        iteration = 0
        # Per-call invariants, compressed with the active set instead of
        # gathered every round: the parameter stacks, the linear RHS (each
        # row only on its own trial) and, as in the row loop, the
        # assembly's other invariants (_KernelInputs), which a singular
        # round rebuilds with the bumped gmins.
        subset = params
        rhs_rows = compiled._linear_rhs(
            (trials,), params, time_s, source_scale, timestep_s, integration,
            previous_solutions, cap_history, cap_g_rows, source_levels,
        )
        inputs = compiled._stack_inputs(trials, params, gmin, timestep_s, integration)
        for iteration in range(1, max_iterations + 1):
            whole = active.size == trials  # no gathers while all are active
            iterates = solutions if whole else solutions[active]
            matrices, rhs = assemble(iterates, linear_rhs=rhs_rows, stack_inputs=inputs)
            bypassed = singular = None
            if use_reuse:
                # Row ``row`` is trial ``trial``, whose own state holds its
                # frozen LU across rounds.
                new_solutions = np.empty_like(rhs)
                bypassed = np.zeros(active.size, dtype=bool)
                singular = np.zeros(active.size, dtype=bool)
                for row, trial in enumerate(active):
                    try:
                        new_solutions[row], bypassed[row] = reuse_states[trial].solve(
                            solver, pattern, solutions[trial], matrices[row], rhs[row]
                        )
                    except np.linalg.LinAlgError:
                        singular[row] = True
            else:
                try:
                    if active.size == 1:
                        # (n,), broadcast against (1, n) stacked iterates.
                        new_solutions = solve_one(matrices[0], rhs[0])
                    else:
                        new_solutions = solve_stack(matrices, rhs)
                except np.linalg.LinAlgError:
                    # A singular system raises for the whole stack, and a
                    # stack of one is its singular row.  A larger stack
                    # re-solves trial by trial (same routine, same bits) to
                    # find the genuinely singular trials.
                    new_solutions = np.empty_like(rhs)
                    singular = np.ones(active.size, dtype=bool)
                    for row in range(active.size if active.size > 1 else 0):
                        try:
                            new_solutions[row] = solve_one(matrices[row], rhs[row])
                            singular[row] = False
                        except np.linalg.LinAlgError:
                            pass
            # Every assembly is a fresh array: let this one go before the
            # next round allocates its successor (a stack of 128 dense
            # Fig. 11 systems is about 1 MB).
            del matrices, rhs
            solved: Optional[np.ndarray] = None
            stepped = active
            if singular is not None and singular.any():
                stuck = active[singular]
                if gmins is None:
                    gmins = np.full(trials, gmin)
                gmins[stuck] = np.maximum(gmins[stuck] * 10.0, 1e-12)
                inputs = compiled._stack_inputs(
                    active.size, subset, gmins[active], timestep_s, integration
                )
                solved = ~singular
                stepped = active[solved]
                iterates = solutions[stepped]
                new_solutions = new_solutions[solved]
                if bypassed is not None:
                    bypassed = bypassed[solved]
            update = new_solutions - iterates
            updates_max = np.abs(update).max(axis=-1) if update.size else np.zeros(0)
            update = np.minimum(np.maximum(update, -damping_v), damping_v)
            if whole and solved is None:
                iterates += update  # iterates is solutions
            else:
                solutions[stepped] = iterates + update
            if use_reuse:
                for row, trial in enumerate(stepped):
                    reuse_states[trial].observe(
                        bool(bypassed[row]), float(updates_max[row]), tolerance_v
                    )
            if solved is not None:
                # The stuck trials keep their last update and sit out this
                # round's convergence and stall tests (NaN compares false).
                aligned = np.full(active.size, np.nan)
                aligned[solved] = updates_max
                last_updates = np.where(solved, aligned, last_updates)
                updates_max = aligned
            else:
                last_updates = updates_max
            done = updates_max < tolerance_v
            leaving = done
            if stall_rounds is not None:
                unreplayed.append(updates_max)
                if iteration >= stall_rounds:
                    if best_updates is None:
                        best_updates = np.full(active.size, np.inf)
                        best_rounds = np.zeros(active.size, dtype=int)
                    first = iteration - len(unreplayed) + 1
                    for past, values in enumerate(unreplayed, first):
                        better = values < best_updates
                        best_updates = np.fmin(best_updates, values)
                        best_rounds[better] = past
                    unreplayed.clear()
                    stalled = best_rounds <= iteration - stall_rounds
                    leaving = done | (stalled if solved is None else stalled & solved)
            leavers = np.count_nonzero(leaving)
            if leavers == active.size:
                converged[active] = done
                break
            if leavers:
                left = active[leaving]
                iterations[left] = iteration
                max_updates[left] = last_updates[leaving]
                converged[left] = done[leaving]
                keep = ~leaving
                active, last_updates = active[keep], last_updates[keep]
                subset = {name: stack[keep] for name, stack in subset.items()}
                rhs_rows = rhs_rows[keep]
                inputs = inputs.compress(keep)
                unreplayed = [values[keep] for values in unreplayed]
                if best_updates is not None:
                    best_updates, best_rounds = best_updates[keep], best_rounds[keep]
        # The trials still active left at the last round or ran the budget.
        iterations[active] = iteration
        max_updates[active] = last_updates
        return solutions, iterations, converged, max_updates

    def _newton_loop(self, trials: int, params: Mapping[str, np.ndarray]) -> Callable:
        """The Newton loop for a ``(trials, n)`` stack.

        A stack of one without parameter stacks — every serial DC solve and
        transient step — takes the row loop (:meth:`_newton_row`), so a
        serial analysis pays no stack bookkeeping; any other stack takes
        the stacked loop (:meth:`_newton_batched`).
        """
        return self._newton_row if trials == 1 and not params else self._newton_batched

    def _newton_row(
        self,
        solutions: np.ndarray,
        params: Mapping[str, np.ndarray],
        *,
        gmin: float,
        max_iterations: int,
        tolerance_v: float,
        damping_v: float,
        solver: LinearSolver,
        time_s: float = 0.0,
        timestep_s: Optional[float] = None,
        previous_solutions: Optional[np.ndarray] = None,
        integration: str = "be",
        cap_history: Optional[np.ndarray] = None,
        cap_g_rows: Optional[np.ndarray] = None,
        source_scale: float = 1.0,
        source_levels: Optional[Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = None,
        reuse_states: Optional[List[_NewtonReuseState]] = None,
        stall_rounds: Optional[int] = None,
        stall_hook: Optional[Callable[[], None]] = None,
    ) -> Tuple[np.ndarray, int, bool, float]:
        """:meth:`_newton_batched`'s rounds on a stack of one, as a row loop.

        Same arguments, for a ``(1, n)`` stack without parameter stacks:
        every round is the kernel's 1-D assembly of the ``(n,)`` iterate
        and a single solve, with the stall rule kept in Python scalars.
        Mutates ``solutions`` and returns ``(solutions, iterations,
        converged, max_update)``, the last three as Python scalars, so a
        serial march pays no per-step stack handling.  ``stall_hook`` is
        called once, when a run under the stall rule ends its round
        ``stall_rounds`` unconverged (:meth:`_solve_dc_stack` starts the
        fallback ladders there).

        What is constant within the call is resolved once, before the first
        round: the backend's assembly and solve, the linear right-hand side,
        the assembly state, which holds the live iterate, and the
        assembly's other invariants (:class:`_KernelInputs`: the linear base,
        the MOSFET parameters, the padded iterate buffer).  Only a singular
        round, which bumps gmin, resolves the state and the invariants
        again.
        """
        compiled = self.compiled
        pattern = compiled.sparsity_pattern() if solver.wants_pattern_assembly else None
        if pattern is not None:
            assemble, solve = compiled.assemble_sparse, solver.solve_pattern
        else:
            assemble, solve = compiled.assemble, solver.solve
        reuse_state = reuse_states[0] if reuse_states is not None and pattern is not None else None
        solution = solutions[0]
        # The linear RHS (sources, capacitor history) depends on neither the
        # iterate nor gmin; every round's assembly only reads it.
        linear_rhs = compiled._linear_rhs(
            (), params, time_s, source_scale, timestep_s, integration,
            None if previous_solutions is None else previous_solutions[0],
            None if cap_history is None else cap_history[0], cap_g_rows, source_levels,
        )
        state = AnalysisState(
            solution, timestep_s=timestep_s, integration=integration, gmin=gmin
        )
        row_inputs = compiled._row_inputs(gmin, timestep_s, integration)
        cache_base, converged = True, False
        max_update, best_update, best_round = np.inf, np.inf, 0
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            system, rhs = assemble(
                state, cache_base=cache_base, linear_rhs=linear_rhs, row_inputs=row_inputs
            )
            bypassed = False
            try:
                if reuse_state is None:
                    new_solution = solve(system, rhs)
                else:
                    new_solution, bypassed = reuse_state.solve(
                        solver, pattern, solution, system, rhs
                    )
            except np.linalg.LinAlgError:
                state = AnalysisState(
                    solution, timestep_s=timestep_s, integration=integration,
                    gmin=max(state.gmin * 10.0, 1e-12),
                )
                cache_base = False
                row_inputs = compiled._row_inputs(
                    state.gmin, timestep_s, integration, cache_base
                )
                continue
            update = new_solution - solution
            max_update = float(np.maximum.reduce(np.abs(update)))
            # Per-unknown clamp: a runaway node (e.g. a floating terminal
            # hanging off a cut-off transistor) must not stall the rest.
            # Within the clamp it changes no bit, so it runs only past it.
            if not max_update <= damping_v:
                np.maximum(update, -damping_v, out=update)
                np.minimum(update, damping_v, out=update)
            solution += update
            if reuse_state is not None:
                reuse_state.observe(bypassed, max_update, tolerance_v)
            if max_update < tolerance_v:
                converged = True
                break
            if stall_rounds is not None:
                if max_update < best_update:
                    best_update, best_round = max_update, iteration
                if iteration == stall_rounds and stall_hook is not None:
                    stall_hook()
                if best_round <= iteration - stall_rounds:
                    break
        return solutions, iteration, converged, max_update

    # ------------------------------------------------------------------ #
    # DC operating points (one driver, serial and stacked)
    # ------------------------------------------------------------------ #

    @_holding_stacked_tables
    def _solve_dc_stack(
        self,
        solutions: np.ndarray,
        params: Mapping[str, np.ndarray],
        *,
        stacked: bool,
        solver: Union[None, str, LinearSolver],
        newton: Optional[str],
        gmin: float,
        **controls,
    ):
        """The DC operating-point policy over a ``(trials, n)`` stack.

        The one DC driver: :meth:`solve_dc` runs it on a stack of one
        (``stacked=False`` selects the serial backend),
        :meth:`solve_dc_batched` on the whole stack.  A plain damped Newton
        run comes first (``newton`` applies to it only), stopped per trial
        by the stall rule (:data:`NEWTON_STALL_ROUNDS`).  The trials it
        leaves unconverged run the :func:`_fallback_ladders` together, each
        ladder from the zero solution at its full budget; a trial the
        ladders cannot rescue keeps its plain-run iterate and reports the
        last rung's update.  ``controls`` are the iteration controls of
        :meth:`_newton_batched`.

        A stack of one on a built-in pattern-assembly backend of at least
        :data:`_LADDER_FORK_SIZE` unknowns starts its ladders in a forked
        child once the plain run ends round :data:`NEWTON_STALL_ROUNDS`
        unconverged (:mod:`repro.spice._rowblocks`), and the plain run goes
        on here.  A plain run that converges cancels the child; one that
        fails collects the child's outcome and credits its factorization
        counts to the backend; a child that failed or died has its ladders
        rerun here.  Every output bit, and ``solver_stats()``, is as
        without the fork.

        Mutates ``solutions``; returns ``(solutions, iterations, converged,
        max_updates, strategies, (factorizations, reuses))``, each strategy
        ``"newton"``, a ladder's name or ``"failed"``.
        """
        compiled = self.compiled
        resolved = get_solver(solver)
        count = solutions.shape[0]
        reuse = _wants_newton_reuse(newton)
        reuse_states = [_NewtonReuseState() for _ in range(count)] if reuse else None
        controls["solver"] = backend = resolved.select(compiled, count if stacked else None)
        backend.bind(compiled)
        counts_before = resolved.solver_stats()
        newton_loop = self._newton_loop(count, params)
        plain_controls = controls
        ladders = None  # the forked ladder child and the solution row it writes
        if (
            newton_loop == self._newton_row
            and backend.wants_pattern_assembly
            and type(backend) in _BUILTIN_BACKENDS
            and compiled.size >= _LADDER_FORK_SIZE
        ):

            def fork_ladders() -> None:
                nonlocal ladders
                if _rowblocks.can_fork():
                    row = _rowblocks.shared(solutions.shape)
                    child = _rowblocks.start(
                        lambda: self._ladder_outcome(row, gmin, backend, controls)
                    )
                    if child is not None:
                        ladders = child, row

            plain_controls = dict(controls, stall_hook=fork_ladders)
        try:
            # The row loop returns scalars; the driver indexes trial arrays.
            solutions, iterations, converged, max_updates = map(
                np.atleast_1d,
                newton_loop(
                    solutions, params, gmin=gmin, reuse_states=reuse_states,
                    stall_rounds=NEWTON_STALL_ROUNDS, **plain_controls,
                ),
            )
        except BaseException:
            if ladders is not None:
                ladders[0].cancel()
            raise
        strategies = ["newton" if ok else "failed" for ok in converged.tolist()]
        pending = np.flatnonzero(~converged) if "failed" in strategies else None
        if ladders is not None:
            child, row = ladders
            if pending is None:  # the plain run converged after all
                child.cancel()
            else:
                outcome = child.collect()
                if outcome is not None:
                    strategy, used, ok, final_update, counts = outcome
                    _credit_counts(backend, counts)
                    iterations[0] += used
                    max_updates[0] = final_update
                    if ok:
                        solutions[0] = row[0]
                        converged[0] = True
                        strategies[0] = strategy
                    pending = None
        if pending is not None:
            self._run_ladders(
                solutions, iterations, converged, max_updates, strategies, pending,
                params, gmin, controls,
            )
        counts = self._counts_delta(resolved.solver_stats(), counts_before)
        return solutions, iterations, converged, max_updates, strategies, counts

    def _run_ladders(
        self,
        solutions: np.ndarray,
        iterations: np.ndarray,
        converged: np.ndarray,
        max_updates: np.ndarray,
        strategies: List[str],
        pending: np.ndarray,
        params: Mapping[str, np.ndarray],
        gmin: float,
        controls: Mapping[str, object],
    ) -> None:
        """Run the :func:`_fallback_ladders` over the trials ``pending``.

        Each ladder runs the trials the ones before it left unconverged,
        from the zero solution; a trial's iterations grow by every rung it
        ran, its update is its last rung's, and a rescued trial takes the
        ladder's solution, ``converged`` and the ladder's name in
        ``strategies``.  Mutates the trial arrays of the stack.
        """
        for ladder, rungs in _fallback_ladders(gmin):
            sub = {name: stack[pending] for name, stack in params.items()}
            stepped = np.zeros((pending.size, solutions.shape[1]))
            newton = self._newton_loop(pending.size, sub)
            for step_gmin, scale in rungs:
                stepped, used, final_ok, final_update = map(
                    np.atleast_1d,
                    newton(stepped, sub, gmin=step_gmin, source_scale=scale, **controls),
                )
                iterations[pending] += used
            max_updates[pending] = final_update
            fixed = pending[final_ok]
            solutions[fixed] = stepped[final_ok]
            converged[fixed] = True
            for trial in fixed:
                strategies[trial] = ladder
            pending = pending[~final_ok]
            if pending.size == 0:
                break

    def _ladder_outcome(
        self,
        solution: np.ndarray,
        gmin: float,
        backend: LinearSolver,
        controls: Mapping[str, object],
    ) -> Tuple[str, int, bool, float, Tuple[int, int]]:
        """The ladders of a stack of one, run in a forked child.

        Writes a rescued trial's solution into the ``(1, n)`` ``solution``
        (shared with the parent) and returns what the parent's
        :meth:`_solve_dc_stack` needs of the rest: ``(strategy, iterations,
        converged, max_update, (factorizations, reuses))``, the counts
        being the ones the ladders added to ``backend``.
        """
        before = backend.solver_stats()
        iterations, converged, max_updates = np.zeros(1, int), np.zeros(1, bool), np.zeros(1)
        strategies = ["failed"]
        self._run_ladders(
            solution, iterations, converged, max_updates, strategies,
            np.zeros(1, np.intp), {}, gmin, controls,
        )
        return (
            strategies[0], int(iterations[0]), bool(converged[0]), float(max_updates[0]),
            self._counts_delta(backend.solver_stats(), before),
        )

    def solve_dc(
        self,
        initial_guess: Optional[np.ndarray] = None,
        max_iterations: int = 300,
        tolerance_v: float = 1e-7,
        gmin: float = 1e-9,
        damping_v: float = 0.6,
        time_s: float = 0.0,
        refresh: bool = True,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ):
        """Solve the DC operating point; returns an ``OperatingPoint``.

        A plain damped Newton iteration is tried first.  If it fails — it
        runs out of ``max_iterations``, or it stalls, going
        :data:`NEWTON_STALL_ROUNDS` rounds without a new smallest update —
        the engine falls back to gmin stepping (re-solving with a strongly
        increased node-to-ground conductance relaxed decade by decade) and,
        if that also fails, to source stepping (ramping every independent
        source from 10 % to full drive with solution continuation).  The
        ladder rungs are never cut by the stall rule, and a failed solve
        returns the plain run's last iterate.  The policy lives in one
        driver shared with :meth:`solve_dc_batched`; this solve is its
        stack of one.

        On two or more usable CPUs, a sparse solve of 120 or more unknowns
        whose plain run ends round :data:`NEWTON_STALL_ROUNDS` unconverged
        starts the fallback ladders in a forked child right then, since
        they never read the plain run's iterate, and the plain run goes on
        here (see :mod:`repro.spice._rowblocks`).  A plain run that then
        converges kills the child; one that fails takes the child's answer
        and counts (the n=399 scalability lattice: 66 plain rounds beside
        220 ladder rounds).  The result and the solver's
        ``solver_stats()`` are bit for bit those of the run in one process.

        ``refresh`` re-reads element parameter values before solving so
        in-place mutations are honoured; batch drivers that refresh once up
        front (sweeps, transient) pass ``False`` for the inner solves.
        ``solver`` selects the linear-solver backend for this solve (name or
        :class:`~repro.spice.solvers.LinearSolver` instance; ``"auto"`` when
        omitted).

        ``newton`` selects the Newton flavour: ``None``/``"full"`` (the
        bit-compatible default — refactorize every round) or ``"reuse"``
        (modified Newton: keep the last factorization while its contraction
        holds, refactor on stall; bit-identical for linear circuits, within
        tolerance otherwise).  The convergence fallbacks always run full
        Newton — a circuit that already failed to converge gets the most
        robust iteration, not the cheapest.

        The returned point carries a
        :class:`~repro.spice.dcop.ConvergenceInfo` naming the strategy that
        produced it, so a solve rescued by a fallback is never silent.
        """
        from repro.spice.dcop import ConvergenceInfo, OperatingPoint

        circuit = self.circuit
        if circuit.system_size == 0:
            raise ValueError("the circuit has no unknowns to solve for")
        if refresh:
            self.compiled.refresh_values()
        solution = (
            initial_guess.copy() if initial_guess is not None else circuit.initial_solution()
        )
        if solution.shape != (circuit.system_size,):
            raise ValueError(
                f"initial guess has shape {solution.shape}, expected ({circuit.system_size},)"
            )
        solutions, iterations, converged, max_updates, strategies, counts = (
            self._solve_dc_stack(
                solution[np.newaxis], {}, stacked=False, solver=solver,
                newton=newton, gmin=gmin, max_iterations=max_iterations,
                tolerance_v=tolerance_v, damping_v=damping_v, time_s=time_s,
            )
        )
        total_iterations = int(iterations[0])
        max_update = float(max_updates[0])
        return OperatingPoint(
            circuit=circuit,
            solution=solutions[0],
            iterations=total_iterations,
            converged=bool(converged[0]),
            max_residual=max_update,
            convergence_info=ConvergenceInfo(
                strategy=strategies[0],
                iterations=total_iterations,
                final_max_update_v=max_update,
                factorizations=counts[0],
                factorization_reuses=counts[1],
            ),
        )

    def _parameter_stacks(
        self,
        params: Optional[Mapping[str, np.ndarray]],
        trials: Optional[int],
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Validate ``(trials, count)`` parameter stacks; returns (stacks, trials).

        Each row must pass the overlay value rules of
        :meth:`CompiledCircuit.set_parameter_overlay`.  Shared by :meth:`solve_dc_batched` and :meth:`solve_transient_batched`.
        """
        lengths = self.compiled._parameter_lengths()
        stacks: Dict[str, np.ndarray] = {}
        count = trials
        for name, stack in (params or {}).items():
            if name not in lengths:
                raise ValueError(
                    f"unknown parameter {name!r}; expected one of {PERTURBABLE_PARAMETERS}"
                )
            array = np.asarray(stack, dtype=float)
            if array.ndim != 2 or array.shape[1] != lengths[name]:
                raise ValueError(
                    f"{name!r} stack has shape {array.shape}, expected "
                    f"(trials, {lengths[name]})"
                )
            if count is None:
                count = array.shape[0]
            elif array.shape[0] != count:
                raise ValueError(
                    f"inconsistent trial counts: {name!r} has {array.shape[0]} rows, "
                    f"expected {count}"
                )
            _check_parameter_values(name, array)
            stacks[name] = array
        if count is None:
            raise ValueError("pass trials= when params carries no parameter stacks")
        if count <= 0:
            raise ValueError("at least one trial is required")
        return stacks, count

    def solve_dc_batched(
        self,
        params: Optional[Mapping[str, np.ndarray]] = None,
        trials: Optional[int] = None,
        initial_guess: Optional[np.ndarray] = None,
        max_iterations: int = 300,
        tolerance_v: float = 1e-7,
        gmin: float = 1e-9,
        damping_v: float = 0.6,
        time_s: float = 0.0,
        refresh: bool = True,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ):
        """Solve many same-pattern DC operating points in stacked batches.

        ``params`` maps perturbable parameter names (see
        :data:`PERTURBABLE_PARAMETERS`) to ``(trials, count)`` stacks — one
        row per trial; parameters not given keep the compiled values for
        every trial.  This is the Monte-Carlo fast path: all trials share
        one compiled structure and every Newton round solves the whole
        stack at once — with the default ``solver`` (``"auto"``), in a single
        batched LAPACK call below the dense/sparse crossover and through the
        shared-structure sparse-batched backend at or above it.

        ``initial_guess`` may be one ``(n,)`` vector (shared warm start) or
        a ``(trials, n)`` stack.  The stack runs :meth:`solve_dc`'s driver
        — plain Newton with its stall rule, then the gmin-stepping and
        source-stepping ladders over the trials it leaves unconverged — so
        each trial matches the per-trial path bit for bit (its strategy
        reads ``"batched-newton"`` where the serial one reads
        ``"newton"``).

        ``newton="reuse"`` runs per-trial modified Newton on either sparse
        backend (each trial keeps its LU until its contraction stalls,
        exactly as a per-trial :meth:`solve_dc` run does).

        On two or more usable CPUs, a stack with enough work (114 or more
        trials at the XOR3 bench's n=33; no dense stack of 100 or more
        unknowns) runs as two row blocks at once,
        the first half in a child forked before the first round, the
        second here, each through the same driver; the child writes its
        solutions into shared memory and sends its per-trial fields and
        factorization counts through a pipe (see
        :mod:`repro.spice._rowblocks`).  The result, its counts and the
        solver's ``solver_stats()`` are bit for bit those of one stack.

        Returns a :class:`~repro.spice.dcop.BatchedOperatingPoints`.
        """
        from repro.spice.dcop import BatchedOperatingPoints

        circuit = self.circuit
        if circuit.system_size == 0:
            raise ValueError("the circuit has no unknowns to solve for")
        if refresh:
            self.compiled.refresh_values()
        stacks, count = self._parameter_stacks(params, trials)

        size = circuit.system_size
        if initial_guess is None:
            solutions = np.zeros((count, size))
        else:
            guess = np.asarray(initial_guess, dtype=float)
            if guess.shape == (size,):
                solutions = np.tile(guess, (count, 1))
            elif guess.shape == (count, size):
                solutions = guess.copy()
            else:
                raise ValueError(
                    f"initial guess has shape {guess.shape}, expected ({size},) "
                    f"or ({count}, {size})"
                )

        resolved = get_solver(solver)

        def block(rows: slice, block_solutions: np.ndarray):
            block_solutions[...] = solutions[rows]
            return self._solve_dc_stack(
                block_solutions, {name: stack[rows] for name, stack in stacks.items()},
                stacked=True, solver=resolved, newton=newton, gmin=gmin,
                max_iterations=max_iterations, tolerance_v=tolerance_v,
                damping_v=damping_v, time_s=time_s,
            )[1:]

        solutions, blocks = self._run_blocks(resolved, count, (size,), 0, block)
        iterations, converged, residuals, strategies, counts = zip(*blocks)
        return BatchedOperatingPoints(
            circuit=circuit,
            solutions=solutions,
            iterations=np.concatenate(iterations),
            converged=np.concatenate(converged),
            max_residuals=np.concatenate(residuals),
            strategies=tuple(
                "batched-newton" if strategy == "newton" else strategy
                for block_strategies in strategies
                for strategy in block_strategies
            ),
            factorizations=sum(factorizations for factorizations, _ in counts),
            factorization_reuses=sum(reuses for _, reuses in counts),
        )

    def _run_blocks(
        self,
        resolved: LinearSolver,
        count: int,
        shape: Tuple[int, ...],
        steps: int,
        block: Callable[[slice, np.ndarray], tuple],
    ) -> Tuple[np.ndarray, List[tuple]]:
        """Run a stacked analysis's ``block`` over its ``count`` trials.

        :func:`~repro.spice._rowblocks.run_blocks` with its ``(count,
        *shape)`` output, split across a forked child when
        :func:`~repro.spice._rowblocks.split_point` says the stack (``steps``:
        a march's, zero for a DC stack) is worth it.  Only the built-in
        backends split: their only process state is their counters, and
        each block's summary ends with its ``(factorizations, reuses)``,
        which a child's block credits to the backend here, so
        ``solver_stats()`` reads as for one stack.  The backend is
        selected and bound before any fork, so both blocks inherit it.
        """
        compiled = self.compiled
        backend = resolved.select(compiled, count)
        backend.bind(compiled)
        half = (
            _rowblocks.split_point(
                count, compiled.size, steps, dense=isinstance(backend, DenseSolver)
            )
            if type(backend) in _BUILTIN_BACKENDS
            else 0
        )

        return _rowblocks.run_blocks(
            count, half, shape, block, lambda summary: _credit_counts(backend, summary[-1])
        )

    # ------------------------------------------------------------------ #
    # DC sweeps
    # ------------------------------------------------------------------ #

    def dc_sweep(
        self,
        source: Union[VoltageSource, CurrentSource, str],
        values: Sequence[float],
        gmin: float = 1e-12,
        max_iterations: int = 200,
        warm_start: bool = True,
        initial_guess: Optional[np.ndarray] = None,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ):
        """Sweep an independent source; returns a ``DCSweepResult``.

        Each point starts the Newton iteration from the previous point's
        solution (continuation) unless ``warm_start`` is disabled; the first
        point can be seeded with ``initial_guess`` (used by
        :meth:`sweep_many` to chain families).
        """
        from repro.spice.dcsweep import DCSweepResult

        source = self._resolve_source(source)
        values_array = np.asarray(list(values), dtype=float)
        if values_array.size == 0:
            raise ValueError("at least one sweep value is required")

        self.compiled.refresh_values()
        solver = get_solver(solver)
        points = []
        guess = initial_guess
        original_waveform = source.waveform
        try:
            for value in values_array:
                source.set_level(float(value))
                point = self.solve_dc(
                    initial_guess=guess,
                    gmin=gmin,
                    max_iterations=max_iterations,
                    refresh=False,
                    solver=solver,
                    newton=newton,
                )
                points.append(point)
                guess = point.solution.copy() if warm_start else initial_guess
        finally:
            source.waveform = original_waveform

        return DCSweepResult(circuit=self.circuit, values=values_array, points=points)

    def sweep_many(
        self,
        source: Union[VoltageSource, CurrentSource, str],
        families: Mapping[Hashable, Sequence[float]],
        configure: Optional[Callable[[Hashable], None]] = None,
        gmin: float = 1e-12,
        max_iterations: int = 200,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ) -> Dict[Hashable, object]:
        """Run a family of DC sweeps through one compiled circuit.

        ``families`` maps a label to the sweep values of that member (e.g.
        one gate voltage per family in the series-switch drive study).
        ``configure(label)`` is called before each family so the caller can
        reconfigure other sources.  Every family warm-starts internally and
        is seeded with the first-point solution of the previous family, so
        the whole batch shares both the compiled structure and continuation.

        Returns an ordered dict of ``DCSweepResult`` keyed by label.
        """
        source = self._resolve_source(source)
        solver = get_solver(solver)
        results: Dict[Hashable, object] = {}
        seed: Optional[np.ndarray] = None
        for label, values in families.items():
            if configure is not None:
                configure(label)
            sweep = self.dc_sweep(
                source,
                values,
                gmin=gmin,
                max_iterations=max_iterations,
                initial_guess=seed,
                solver=solver,
                newton=newton,
            )
            results[label] = sweep
            seed = sweep.points[0].solution.copy()
        return results

    def _resolve_source(self, source) -> Union[VoltageSource, CurrentSource]:
        if isinstance(source, str):
            source = self.circuit.element(source)
        if not isinstance(source, (VoltageSource, CurrentSource)):
            raise TypeError("dc_sweep needs a VoltageSource or CurrentSource (or its name)")
        return source

    # ------------------------------------------------------------------ #
    # transient analysis
    # ------------------------------------------------------------------ #

    def solve_transient(
        self,
        stop_time_s: float,
        timestep_s: float,
        integration: str = "be",
        max_newton_iterations: int = 100,
        tolerance_v: float = 1e-6,
        gmin: float = 1e-9,
        use_initial_conditions: bool = False,
        adaptive: bool = False,
        lte_tolerance_v: float = 2e-3,
        min_timestep_s: Optional[float] = None,
        max_timestep_s: Optional[float] = None,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ):
        """Transient analysis; returns a ``TransientResult``.

        Starts from the DC operating point at ``t = 0`` (or from zero with
        ``use_initial_conditions``) and marches with per-step Newton
        iteration; capacitor companion histories are updated vectorized
        after every accepted step.  The march is a stack of one: every step
        runs the engine's one Newton loop as its row loop.

        With ``adaptive=False`` (the default) the march uses the fixed
        ``timestep_s`` grid; it is the fixed-step driver that
        :meth:`solve_transient_batched` runs, so a lockstep trial and a
        serial run with that trial's overlay are bit-identical.
        With ``adaptive=True`` an LTE-based step-size controller drives the
        march: ``timestep_s`` becomes the initial step, each step's local
        truncation error is estimated against a polynomial predictor and
        the step is accepted/rejected against ``lte_tolerance_v``, with the
        step size clamped to ``[min_timestep_s, max_timestep_s]``
        (defaulting to ``timestep_s / 64`` and ``timestep_s * 64``).  The
        controller never steps across a source-waveform breakpoint, so
        stimulus edges cannot be skipped however large the step grows.

        ``newton="reuse"`` keeps one modified-Newton factorization state
        across the whole march — the frozen LU carries over between steps,
        refactorizing only when its contraction stalls, which is where a
        transient run saves most of its factorizations (the warm-start DC
        solve always runs full Newton).  The default refactorizes every
        round.

        Either way the result carries a
        :class:`~repro.spice.transient.TransientConvergenceInfo` with the
        Newton totals, the controller's step-acceptance statistics and the
        march's factorization/reuse counts.
        """
        from repro.spice.transient import TransientConvergenceInfo, TransientResult

        circuit = self.circuit
        if circuit.system_size == 0:
            raise ValueError("the circuit has no unknowns to solve for")
        _check_transient_arguments(stop_time_s, timestep_s, integration)
        compiled = self.compiled
        compiled.refresh_values()

        resolved = get_solver(solver)
        reuse_states = [_NewtonReuseState()] if _wants_newton_reuse(newton) else None
        counts_before = resolved.solver_stats()
        if use_initial_conditions:
            # The march starts from the zero guess, with every capacitor at
            # its initial_voltage_v for the first step's companion model.
            initial_solution = circuit.initial_solution()
        else:
            # The cold warm start always runs full Newton: far from the
            # operating point the Jacobian changes too fast for a frozen
            # factorization to contract, so reuse mode would only thrash
            # (refactor, stall, refactor) before the march even begins.
            initial_solution = self.solve_dc(
                gmin=gmin, time_s=0.0, refresh=False, solver=resolved
            ).solution.copy()

        backend = resolved.select(compiled)
        backend.bind(compiled)
        controls = dict(
            max_newton_iterations=max_newton_iterations,
            tolerance_v=tolerance_v,
            gmin=gmin,
            integration=integration,
            use_initial_conditions=use_initial_conditions,
            solver=backend,
            reuse_states=reuse_states,
        )
        if adaptive:
            result = self._transient_adaptive(
                initial_solution,
                stop_time_s,
                timestep_s,
                lte_tolerance_v=lte_tolerance_v,
                min_timestep_s=min_timestep_s,
                max_timestep_s=max_timestep_s,
                **controls,
            )
        else:
            times, waveforms, newton_totals, converged, residuals = self._march_fixed(
                initial_solution[np.newaxis], {}, stop_time_s, timestep_s, **controls
            )
            solutions = waveforms[0]
            steps = times.size - 1
            result = TransientResult(
                circuit=circuit,
                time_s=times,
                solutions=solutions,
                converged=bool(converged[0]),
                convergence_info=TransientConvergenceInfo(
                    strategy="fixed-step",
                    newton_iterations=int(newton_totals[0]),
                    max_newton_residual_v=float(residuals[0]),
                    accepted_steps=steps,
                    rejected_steps=0,
                    min_step_s=timestep_s,
                    max_step_s=timestep_s,
                ),
            )
        factorizations, reuses = self._counts_delta(
            resolved.solver_stats(), counts_before
        )
        result.convergence_info = dataclasses.replace(
            result.convergence_info,
            factorizations=factorizations,
            factorization_reuses=reuses,
        )
        return result

    @_holding_stacked_tables
    def _march_fixed(
        self,
        solutions: np.ndarray,
        params: Mapping[str, np.ndarray],
        stop_time_s: float,
        timestep_s: float,
        *,
        max_newton_iterations: int,
        tolerance_v: float,
        gmin: float,
        integration: str,
        use_initial_conditions: bool,
        solver: LinearSolver,
        reuse_states: Optional[List[_NewtonReuseState]],
        waveforms: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The fixed-step march of a ``(trials, n)`` stack of start points.

        The one fixed-grid driver: :meth:`solve_transient` runs it on a
        stack of one, :meth:`solve_transient_batched` on the lockstep stack.
        Each step is one Newton loop call (:meth:`_newton_loop`) from the
        previous time point, with its row of the march's source table
        (:meth:`CompiledCircuit._source_table`, built once for the grid) as
        the source values; a trial whose step does not converge keeps its
        last iterate and marches on, with the step's update in its worst
        residual.  With
        ``use_initial_conditions`` the first step's capacitor companion (and
        the trapezoidal history after it) takes the capacitors' initial
        voltages as the previous voltages.

        Returns ``(times, waveforms, newton_totals, converged,
        worst_residuals)``: the ``(steps + 1,)`` time axis, the
        ``(trials, steps + 1, n)`` solutions (written into ``waveforms``
        when it is handed in), the per-trial Newton totals and the
        all-steps-converged flags and worst updates.
        """
        compiled = self.compiled
        count, size = solutions.shape
        steps = int(round(stop_time_s / timestep_s))
        times = np.linspace(0.0, steps * timestep_s, steps + 1)
        if waveforms is None:
            waveforms = np.zeros((count, steps + 1, size))
        waveforms[:, 0, :] = solutions
        # Per-step (iterations, converged, max_update) stories, reduced once
        # at the end; the row loop's are Python scalars, so a serial march
        # pays no per-step stack arithmetic.
        newton = self._newton_loop(count, params)
        stories: List[tuple] = []
        cap_history = np.zeros((count, compiled.num_capacitors))
        # March-wide invariant: the companion conductances (per trial under
        # a cap_c stack), handed to every step's linear right-hand side and
        # reused by the trapezoidal history update.
        cap_g = compiled._capacitor_conductance(timestep_s, integration, params.get("cap_c"))

        # Every source on the whole grid, once: step k reads row k in place
        # of its time's waveform values.
        v_table, i_table = compiled._source_table(times)

        previous = solutions
        # None: the first step starts from the capacitors' initial voltages.
        companion_previous = None if use_initial_conditions else previous
        for step in range(1, steps + 1):
            # Each step iterates in place on its own waveform row, seeded
            # with the previous time point.
            current = waveforms[:, step, :]
            current[...] = previous
            stories.append(
                newton(
                    current,
                    params,
                    gmin=gmin,
                    max_iterations=max_newton_iterations,
                    tolerance_v=tolerance_v,
                    damping_v=1.0,
                    source_levels=(
                        None if v_table is None else v_table[step],
                        None if i_table is None else i_table[step],
                    ),
                    timestep_s=timestep_s,
                    previous_solutions=companion_previous,
                    integration=integration,
                    cap_history=cap_history if integration == "trap" else None,
                    cap_g_rows=cap_g,
                    solver=solver,
                    reuse_states=reuse_states,
                )[1:]
            )
            cap_history = self._accept_step(
                cap_history, current, companion_previous, cap_g, integration
            )
            previous = companion_previous = current
        iterations, converged, residuals = (
            np.array(column).reshape(steps, count) for column in zip(*stories)
        )
        return (
            times,
            waveforms,
            iterations.sum(axis=0),
            converged.all(axis=0),
            # fmax: a NaN update never becomes the worst residual.
            np.fmax.reduce(residuals, axis=0, initial=0.0),
        )

    def _accept_step(
        self,
        cap_history: np.ndarray,
        solutions: np.ndarray,
        previous_solutions: Optional[np.ndarray],
        cap_g: np.ndarray,
        integration: str,
    ) -> np.ndarray:
        """Advance the trapezoidal capacitor history past one accepted step.

        ``solutions`` and ``previous_solutions`` are ``(trials, n)`` stacks
        (``None``: a first step from initial conditions) and ``cap_g`` the
        step's companion conductances.  Backward Euler keeps no history (its
        companion current only uses the previous voltage, gathered during
        assembly), so it returns ``cap_history`` unchanged.
        """
        if integration != "trap" or not self.compiled.num_capacitors:
            return cap_history
        return cap_g * self.compiled._cap_dv(solutions, previous_solutions) - cap_history

    def _transient_adaptive(
        self,
        initial_solution: np.ndarray,
        stop_time_s: float,
        timestep_s: float,
        *,
        lte_tolerance_v: float,
        min_timestep_s: Optional[float],
        max_timestep_s: Optional[float],
        max_newton_iterations: int,
        tolerance_v: float,
        gmin: float,
        integration: str,
        use_initial_conditions: bool,
        solver: LinearSolver,
        reuse_states: Optional[List[_NewtonReuseState]],
    ):
        """LTE-controlled adaptive march (accept/reject with step clamps).

        The local truncation error of each candidate step is estimated as
        the deviation of the corrector solution from a linear predictor
        extrapolated through the two previous accepted points — the
        standard divided-difference estimate, whose leading term matches
        the integrator's own error order.  The first step, with only the
        start point behind it, is checked against that point held
        constant.  Steps whose estimate exceeds
        ``lte_tolerance_v`` are rejected and retried smaller (never below
        ``min_timestep_s``); accepted steps grow the next proposal by the
        usual safety-factored power law.  Candidate steps are clipped so a
        step never crosses a source-waveform breakpoint or the stop time.
        With ``use_initial_conditions`` the first accepted step, and every
        retry of it, takes the capacitors' initial voltages as the previous
        capacitor voltages.  The march state is a stack of one, and every
        candidate step one :meth:`_newton_row` call on it.
        """
        from repro.spice.transient import TransientConvergenceInfo, TransientResult

        if lte_tolerance_v <= 0.0:
            raise ValueError("lte_tolerance_v must be positive")
        min_step = timestep_s / 64.0 if min_timestep_s is None else min_timestep_s
        max_step = timestep_s * 64.0 if max_timestep_s is None else max_timestep_s
        if min_step <= 0.0:
            raise ValueError("min_timestep_s must be positive")
        max_step = max(max_step, min_step)
        # Error order of the estimate: BE is first order (LTE ~ h^2), trap
        # second order (LTE ~ h^3); the controller exponent is 1/(order+1).
        exponent = 0.5 if integration == "be" else 1.0 / 3.0
        safety = 0.9

        circuit = self.circuit
        compiled = self.compiled
        cap_history = np.zeros((1, compiled.num_capacitors))
        breakpoints = self._waveform_breakpoints(stop_time_s)

        times: List[float] = [0.0]
        previous_solution = initial_solution[np.newaxis].copy()
        rows: List[np.ndarray] = [previous_solution]
        older_solution: Optional[np.ndarray] = None
        previous_dt: float = 0.0

        time = 0.0
        proposal = min(timestep_s, max_step)
        accepted = 0
        rejected = 0
        newton_total = 0
        worst_residual = 0.0
        smallest_dt = float("inf")
        largest_dt = 0.0
        all_converged = True
        time_floor = np.finfo(float).eps * max(stop_time_s, 1.0)

        while time < stop_time_s - time_floor:
            dt = min(proposal, max_step, stop_time_s - time)
            clipped = dt < proposal
            # Land exactly on the next stimulus breakpoint instead of
            # stepping over it (breakpoints are strictly inside (0, stop)).
            cursor = np.searchsorted(breakpoints, time + time_floor, side="right")
            if cursor < breakpoints.size and time + dt > breakpoints[cursor]:
                dt = breakpoints[cursor] - time
                clipped = True
            # None: the capacitors' initial voltages, until the first step.
            companion_previous = (
                None if use_initial_conditions and not accepted else previous_solution
            )

            solution, used, converged, residual = self._newton_row(
                previous_solution.copy(),
                {},
                gmin=gmin,
                max_iterations=max_newton_iterations,
                tolerance_v=tolerance_v,
                damping_v=1.0,
                time_s=time + dt,
                timestep_s=dt,
                previous_solutions=companion_previous,
                integration=integration,
                cap_history=cap_history if integration == "trap" else None,
                solver=solver,
                reuse_states=reuse_states,
            )
            newton_total += used
            can_shrink = dt > min_step * (1.0 + 1e-12)

            if not converged and can_shrink:
                rejected += 1
                proposal = max(min_step, dt * 0.25)
                continue

            if older_solution is None:
                # First step: predict with the start point.  At a DC
                # operating point every capacitor current, and so every
                # state derivative, is zero at t = 0, so this is as accurate
                # as the linear predictor of later steps.
                predictor = previous_solution
            else:
                predictor = previous_solution + (dt / previous_dt) * (
                    previous_solution - older_solution
                )
            error = float(np.max(np.abs(solution - predictor)))

            if error > lte_tolerance_v and can_shrink:
                rejected += 1
                shrink = safety * (lte_tolerance_v / error) ** exponent
                proposal = max(min_step, dt * min(max(shrink, 0.1), 0.9))
                continue

            # Accept.
            if not converged:
                all_converged = False
            worst_residual = max(worst_residual, residual)
            time += dt
            times.append(time)
            rows.append(solution)
            accepted += 1
            smallest_dt = min(smallest_dt, dt)
            largest_dt = max(largest_dt, dt)

            cap_history = self._accept_step(
                cap_history,
                solution,
                companion_previous,
                compiled._capacitor_conductance(dt, integration),
                integration,
            )

            older_solution = previous_solution
            previous_dt = dt
            previous_solution = solution
            if error > 0.0:
                growth = safety * (lte_tolerance_v / error) ** exponent
                grown = dt * min(max(growth, 0.2), 2.0)
            else:
                grown = dt * 2.0
            # A breakpoint/stop-clipped step says nothing about the LTE the
            # controller's preferred step would produce — keep the proposal.
            proposal = min(max_step, max(min_step, max(grown, proposal) if clipped else grown))

        solutions = np.vstack(rows)
        time_axis = np.array(times)

        return TransientResult(
            circuit=circuit,
            time_s=time_axis,
            solutions=solutions,
            converged=all_converged,
            convergence_info=TransientConvergenceInfo(
                strategy="adaptive",
                newton_iterations=newton_total,
                max_newton_residual_v=worst_residual,
                accepted_steps=accepted,
                rejected_steps=rejected,
                min_step_s=smallest_dt if accepted else timestep_s,
                max_step_s=largest_dt if accepted else timestep_s,
            ),
        )

    # ------------------------------------------------------------------ #
    # batched transient (lockstep Monte-Carlo trial march)
    # ------------------------------------------------------------------ #

    def solve_transient_batched(
        self,
        stop_time_s: float,
        timestep_s: float,
        params: Optional[Mapping[str, np.ndarray]] = None,
        trials: Optional[int] = None,
        integration: str = "be",
        max_newton_iterations: int = 100,
        tolerance_v: float = 1e-6,
        gmin: float = 1e-9,
        use_initial_conditions: bool = False,
        refresh: bool = True,
        solver: Union[None, str, LinearSolver] = None,
        newton: Optional[str] = None,
    ):
        """Fixed-step transient analysis of many stacked trials in lockstep.

        All trials share the circuit topology (and the fixed ``timestep_s``
        grid) but carry their own parameter stacks (``params`` maps names
        from :data:`PERTURBABLE_PARAMETERS` to ``(trials, count)`` rows).
        Every timestep advances the whole stack together: each Newton round
        assembles the stacked systems and solves them in one solver call
        (below the dense/sparse crossover, the default ``solver="auto"``
        assembles ``(trials, n, n)`` through the compiled circuit's
        ``assemble_batched`` and solves the stack with batched LAPACK),
        with three structural savings over per-trial marching:

        * source waveforms and breakpoint-free step timing are evaluated
          once per step, not once per trial;
        * a trial is frozen the moment its step converges, so easy trials
          stop paying Newton rounds for hard ones;
        * per-trial capacitor companion histories advance vectorized.

        The march is :meth:`solve_transient`'s fixed-step driver on the
        whole stack, after a DC warm start through :meth:`solve_dc`'s
        driver, so every trial's waveform is bit-identical to a serial
        ``solve_transient`` run with that trial's parameter overlay on the
        same grid.  Failures follow the serial rules inside the stack: a
        singular system bumps only that trial's gmin, and a trial whose step
        does not converge keeps its last iterate and marches on, with
        ``converged`` false and the step's update in its worst residual.

        On two or more usable CPUs, a stack whose march alone carries
        enough work (``trials * n * steps`` of 60 000 or more, as in the
        128-trial XOR3 variability study; no small stack, and no dense
        stack of 100 or more unknowns) runs as two row blocks at once: a
        child forked before the first Newton round runs the first half of
        the trials, DC warm start and march, while this process runs the
        second; the child writes its rows of the waveforms into
        memory shared with this process and its per-trial counts come back
        through a pipe (see :mod:`repro.spice._rowblocks`).  Every trial
        is bit-identical either way, and so are the result's counts and
        the solver's ``solver_stats()``.  A child that fails or dies has
        its block rerun here; no child outlives the call.

        Adaptive stepping is *not* supported: lockstep batching requires
        every trial to share the time grid.  Returns a
        :class:`~repro.spice.transient.BatchedTransientResult`.
        """
        from repro.spice.transient import BatchedTransientResult

        circuit = self.circuit
        if circuit.system_size == 0:
            raise ValueError("the circuit has no unknowns to solve for")
        _check_transient_arguments(stop_time_s, timestep_s, integration)
        compiled = self.compiled
        if refresh:
            compiled.refresh_values()
        stacks, count = self._parameter_stacks(params, trials)
        resolved = get_solver(solver)
        backend = resolved.select(compiled, count)
        want_reuse = _wants_newton_reuse(newton)
        steps = int(round(stop_time_s / timestep_s))

        def block(rows: slice, waveforms: np.ndarray):
            sub = {name: stack[rows] for name, stack in stacks.items()}
            rows_count = rows.stop - rows.start
            counts_before = resolved.solver_stats()
            # Per-trial DC warm start at t = 0, exactly like the serial path
            # (solve_dc defaults; solve_dc_batched runs solve_dc's driver).
            if use_initial_conditions:
                # As in solve_transient: the zero guess, with every capacitor
                # at its initial_voltage_v for the first step's companion model.
                solutions = np.tile(circuit.initial_solution(), (rows_count, 1))
            else:
                # Cold warm start at full Newton, exactly like solve_transient:
                # reuse mode only pays off once the march tracks a slowly
                # drifting Jacobian.
                solutions = self.solve_dc_batched(
                    sub, trials=rows_count, gmin=gmin, time_s=0.0, refresh=False,
                    solver=resolved,
                ).solutions.copy()
            times, _, newton_totals, converged, worst_residuals = self._march_fixed(
                solutions,
                sub,
                stop_time_s,
                timestep_s,
                max_newton_iterations=max_newton_iterations,
                tolerance_v=tolerance_v,
                gmin=gmin,
                integration=integration,
                use_initial_conditions=use_initial_conditions,
                solver=backend,
                reuse_states=(
                    [_NewtonReuseState() for _ in range(rows_count)] if want_reuse else None
                ),
                waveforms=waveforms,
            )
            counts = self._counts_delta(resolved.solver_stats(), counts_before)
            return times, newton_totals, converged, worst_residuals, counts

        waveforms, blocks = self._run_blocks(
            resolved, count, (steps + 1, circuit.system_size), steps, block
        )
        times, newton_totals, converged, worst_residuals, counts = zip(*blocks)
        return BatchedTransientResult(
            circuit=circuit,
            time_s=times[-1],
            solutions=waveforms,
            converged=np.concatenate(converged),
            newton_iterations=np.concatenate(newton_totals),
            max_residuals=np.concatenate(worst_residuals),
            strategies=("lockstep",) * count,
            factorizations=sum(factorizations for factorizations, _ in counts),
            factorization_reuses=sum(reuses for _, reuses in counts),
        )

    def _waveform_breakpoints(self, stop_time_s: float) -> np.ndarray:
        """Sorted source-waveform corner times strictly inside (0, stop)."""
        compiled = self.compiled
        collected = set()
        for source in (*compiled.voltage_sources, *compiled.current_sources):
            hook = getattr(source.waveform, "breakpoints", None)
            if callable(hook):
                collected.update(
                    float(t) for t in hook(stop_time_s) if 0.0 < t < stop_time_s
                )
        return np.array(sorted(collected))


def get_engine(circuit: Circuit) -> AnalysisEngine:
    """The :class:`AnalysisEngine` cached on ``circuit``.

    Creating the engine is cheap; the compiled structure inside it is built
    lazily and recompiled only when the circuit's topology changes, so
    repeated analyses on one circuit (sweeps, parameter studies) share all
    precomputed index arrays.
    """
    engine = getattr(circuit, "_analysis_engine", None)
    if engine is None:
        engine = AnalysisEngine(circuit)
        circuit._analysis_engine = engine
    return engine
