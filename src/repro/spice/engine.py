"""The unified analysis engine: compiled sparse stamping and batched sweeps.

All analyses (DC operating point, DC sweeps, transient) run through one
:class:`AnalysisEngine`, which owns the Newton-Raphson loop and its
convergence fallbacks (gmin stepping, source stepping).  The engine compiles
a :class:`~repro.spice.netlist.Circuit` once into per-element-class index
arrays (:class:`CompiledCircuit`) so each Newton iteration assembles the
Jacobian and right-hand side with one vectorized scatter into the CSC data
of a :class:`SparsityPattern` instead of per-element Python ``stamp()``
calls.  The sparse solvers take that data as is; the dense ones get it
placed into a zeroed ``(n, n)`` matrix.

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
  Each Newton iteration copies the base and adds only the nonlinear
  (MOSFET) stamps.
* **Closed element set.**  The compiler knows exactly five element types
  (:class:`Resistor`, :class:`Capacitor`, :class:`MOSFET`,
  :class:`VoltageSource`, :class:`CurrentSource`) and raises ``TypeError``
  for any other, subclasses included (a subclass may override ``stamp()``).
  Every compiled circuit therefore has a static sparsity pattern, and the
  serial and stacked analyses accept the same circuits.  Other elements
  still stamp through :meth:`~repro.spice.netlist.Circuit.assemble`, the
  per-element oracle.
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
:class:`~repro.spice.solvers.LinearSolver` backend (dense LAPACK by default,
sparse SuperLU for large lattices, a batched dense backend for stacked
Monte-Carlo trials).  Every analysis accepts ``solver=`` (a backend name or
instance); see :mod:`repro.spice.solvers`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.spice.netlist import AnalysisState, Circuit
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import MOSFET, evaluate_level1_arrays
from repro.spice.elements.resistor import Resistor
from repro.spice.elements.sources import CurrentSource, VoltageSource
from repro.spice.solvers import FactorizationCache, LinearSolver, get_solver

#: gmin ladder of the gmin-stepping fallback (relaxed decade by decade).
GMIN_LADDER: Tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

#: Stall limit of the plain DC Newton: a run that has gone this many rounds
#: without a new smallest ``max_update`` stops as not converged, and the
#: fallback ladders take over (they restart from the zero initial solution,
#: so their answer does not depend on when the plain run stopped).  Ladder
#: rungs and transient steps keep their full ``max_iterations`` budget.
NEWTON_STALL_ROUNDS = 20

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
            if FactorizationCache.fingerprint(data) == handle.fingerprint:
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


class SparsityPattern:
    """The CSC structure shared by every assembly of one compiled topology.

    Walks the compiled index arrays once and records every matrix entry any
    compiled stamp can touch — the node diagonal (gmin), the static resistor
    and voltage-source-branch entries, the capacitor companion entries and
    the MOSFET conductance positions of *both* channel orientations — as a
    canonical (column-major, deduplicated) CSC pattern.  On top of the raw
    structure (:attr:`indices`/:attr:`indptr`) it precomputes the CSC data
    position of each stamp group, so every assembly scatters values
    straight into a ``(nnz,)`` data array with no per-iteration structure
    analysis, and the flat ``(n, n)`` position of each entry
    (:attr:`dense_pos`), so a dense assembly is that data placed into a
    zeroed matrix.

    Ghost (ground) entries map to a trash slot at position :attr:`nnz`; the
    assembly routines allocate data arrays of length ``nnz + 1`` and use
    only the ``[:nnz]`` prefix.
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
            # assembly selects rows with np.where(forward, ...).
            self.mos_pos_forward = self._mos_positions(d, s, g)
            self.mos_pos_reverse = self._mos_positions(s, d, g)
        else:
            self.mos_pos_forward = None
            self.mos_pos_reverse = None

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
      (re-read on every assembly, so ``set_level`` during sweeps is honoured);
    * any other element, a subclass of these five included, is rejected
      with ``TypeError``.

    Every assembly runs one scatter over the compiled stamps — serial
    (:meth:`_scatter`) or stacked (:meth:`_scatter_batched`) — into the
    CSC data of the topology's :class:`SparsityPattern`.  The sparse
    assemblies return that data; the dense ones place it into a zeroed
    matrix, so dense and sparse results are bit-identical by construction.
    """

    #: Base pattern data retained per (gmin, timestep, integration)
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
        #: ``(2, M)`` RHS rows of the companion current, per channel
        #: orientation (oriented drain first, then oriented source).
        self._mos_rhs_forward = np.stack((self.mos_d, self.mos_s))
        self._mos_rhs_reverse = np.stack((self.mos_s, self.mos_d))

        self.num_mosfets = len(mosfets)
        self.num_capacitors = len(capacitors)
        self._ghost = ghost
        self._base_data_cache: Dict[Hashable, np.ndarray] = {}
        #: Preallocated per-round scratch buffers of the batched assemblies
        #: (see :meth:`_workspace`); keyed by buffer role.
        self._workspaces: Dict[str, np.ndarray] = {}
        self._pattern: Optional[SparsityPattern] = None
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
            if name == "resistor_ohm" and np.any(array <= 0.0):
                raise ValueError("resistor_ohm overlay values must be positive")
            if name == "cap_c" and np.any(array < 0.0):
                raise ValueError("cap_c overlay values must be non-negative")
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
        """A reusable ``(rows, cols)`` scratch view for the batched hot path.

        The batched Newton loop re-assembles the stack every round; these
        capacity-grown buffers kill the per-round allocation churn.  The
        returned view is only valid until the next call with the same
        ``name`` — callers that hand buffers to the outside world (the
        public assembly entry points) must opt in explicitly.
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
        """
        overlay = self._overlay or {}
        if self.resistors:
            resistance = overlay.get("resistor_ohm")
            if resistance is not None:
                conductances = 1.0 / resistance
            else:
                conductances = np.array(
                    [r.conductance for r in self.resistors], dtype=float
                )
            n4 = 4 * len(self.resistors)
            new_vals = np.empty(n4)
            new_vals[0::4] = conductances
            new_vals[1::4] = conductances
            new_vals[2::4] = -conductances
            new_vals[3::4] = -conductances
            if not np.array_equal(new_vals, self._static_vals[:n4]):
                self._static_vals = np.concatenate((new_vals, self._static_vals[n4:]))
                self._base_data_cache.clear()
        if self.capacitors:
            new_c = overlay.get("cap_c")
            if new_c is None:
                new_c = np.array([c.capacitance_f for c in self.capacitors], dtype=float)
            if not np.array_equal(new_c, self.cap_c):
                self.cap_c = new_c
                self._base_data_cache.clear()
            if not overlay:
                self.cap_v0 = np.array(
                    [c.initial_voltage_v for c in self.capacitors], dtype=float
                )
        if self.mosfets:
            beta = overlay.get("mos_beta")
            vth = overlay.get("mos_vth")
            lam = overlay.get("mos_lambda")
            self.mos_beta = (
                beta
                if beta is not None
                else np.array([m.parameters.beta for m in self.mosfets], dtype=float)
            )
            self.mos_vth = (
                vth
                if vth is not None
                else np.array([m.parameters.vth_v for m in self.mosfets], dtype=float)
            )
            self.mos_lambda = (
                lam
                if lam is not None
                else np.array(
                    [m.parameters.lambda_per_v for m in self.mosfets], dtype=float
                )
            )
            if not overlay:
                # gmin/smoothing (and cap_v0 above) are not perturbable, so
                # the per-trial overlay refresh — the Monte-Carlo hot path —
                # skips their per-element Python walks; nominal refreshes
                # keep honouring in-place element mutation as before.
                self.mos_gmin = np.array(
                    [m.CHANNEL_GMIN for m in self.mosfets], dtype=float
                )
                self.mos_w = np.array([m.SMOOTHING_V for m in self.mosfets], dtype=float)
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

    def _cap_dv(self, now: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Capacitor voltage change from ``prev`` to ``now``.

        Takes ``(n,)`` iterates or ``(trials, n)`` stacks and returns
        ``(C,)`` or ``(trials, C)``; a grounded terminal reads the zero
        ghost slot.
        """
        ghost = np.zeros(now.shape[:-1] + (1,))
        now = np.concatenate((now, ghost), axis=-1)
        prev = np.concatenate((prev, ghost), axis=-1)
        a, b = self.cap_a, self.cap_b
        return (now[..., a] - now[..., b]) - (prev[..., a] - prev[..., b])

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
        """The cached linear part of the Jacobian as CSC pattern data.

        A ``(nnz + 1,)`` array (trailing trash slot for ghost entries)
        accumulated in a fixed order: static entries, then the gmin
        diagonal, then the capacitor companions.  The batched scatter's
        perturbed-parameter path repeats that order per trial, so a trial's
        linear part is bit-identical to this base under its overlay.

        ``cache=False`` builds the base without retaining it — used for the
        one-off bumped-gmin retries after a singular solve, which would
        otherwise grow the cache with contexts that are never reused.
        """
        pattern = self.sparsity_pattern()
        key = (gmin, timestep_s, integration if timestep_s is not None else "dc")
        data = self._base_data_cache.get(key)
        if data is not None:
            # LRU touch: re-insert so timestep/gmin studies evict the
            # least-recently-used context first.
            self._base_data_cache.pop(key)
            self._base_data_cache[key] = data
        else:
            data = np.zeros(pattern.nnz + 1)
            if self._static_rows.size:
                np.add.at(data, pattern.static_pos, self._static_vals)
            data[pattern.gmin_diag_pos] += gmin
            if timestep_s is not None and self.num_capacitors:
                g = self._capacitor_conductance(timestep_s, integration)
                np.add.at(data, pattern.cap_pos, np.concatenate((g, g, -g, -g)))
            data[pattern.nnz] = 0.0
            if cache:
                if len(self._base_data_cache) >= self.BASE_CACHE_LIMIT:
                    self._base_data_cache.pop(next(iter(self._base_data_cache)))
                self._base_data_cache[key] = data
        return data

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
            return scale * np.fromiter(
                (source.waveform.value(time_s) for source in sources),
                dtype=float,
                count=len(sources),
            )

        return values(self.voltage_sources), values(self.current_sources)

    def _pad(self, vector: np.ndarray) -> np.ndarray:
        """Append the ghost (ground) slot so index -1 gathers 0."""
        padded = np.empty(self.size + 1)
        padded[: self.size] = vector
        padded[self.size] = 0.0
        return padded

    def assemble(
        self,
        state: AnalysisState,
        source_scale: float = 1.0,
        cap_history: Optional[np.ndarray] = None,
        cache_base: bool = True,
        linear_rhs: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized system at ``state`` as a dense matrix.

        Returns the ``(n, n)`` matrix and the ghost-trimmed right-hand side,
        ready for ``np.linalg.solve``.  The matrix is the pattern data of
        :meth:`_scatter` placed into a zeroed matrix: every entry on the
        pattern is bit-identical to :meth:`assemble_sparse`, every entry off
        it is exactly zero.

        ``source_scale`` scales every independent source (used by the
        source-stepping fallback).  ``cap_history`` supplies the trapezoidal
        capacitor history currents; when omitted they are read from the
        elements, matching the legacy stamp path.  ``cache_base=False``
        builds the linear base without caching it (one-off gmin retries).

        ``linear_rhs`` lets the Newton loop hand in the per-solve invariant
        part of the right-hand side — sources plus capacitor history, as
        :meth:`_linear_rhs` builds it (ghost slot included) — computed once
        per solve instead of once per iteration.  The assembly accumulates
        the device currents into it in place; when omitted it is built here
        (identical values either way).
        """
        data, rhs = self._scatter(state, source_scale, cap_history, cache_base, linear_rhs)
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
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized system at ``state`` as CSC pattern data.

        Same arguments as :meth:`assemble`, but no ``(n, n)`` matrix is ever
        formed: returns ``(data, rhs)`` where ``data`` is the ``(nnz,)``
        value array of :meth:`sparsity_pattern` and ``rhs`` the
        ghost-trimmed right-hand side.
        """
        pattern = self.sparsity_pattern()
        data, rhs = self._scatter(state, source_scale, cap_history, cache_base, linear_rhs)
        return data[: pattern.nnz], rhs[: self.size]

    def _scatter(
        self,
        state: AnalysisState,
        source_scale: float,
        cap_history: Optional[np.ndarray],
        cache_base: bool,
        linear_rhs: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The serial assembly kernel: ``(nnz + 1,)`` data and ``(n + 1,)`` RHS.

        Copies the base data, takes (or builds) the linear right-hand side,
        then adds the MOSFET companion stamps at the positions of the
        channel orientation each device takes at ``state.solution``.
        """
        pattern = self.sparsity_pattern()
        data = self._base_data(
            state.gmin, state.timestep_s, state.integration, cache=cache_base
        ).copy()
        rhs = (
            linear_rhs
            if linear_rhs is not None
            else self._linear_rhs(state, source_scale, cap_history)
        )
        if self.num_mosfets:
            forward, gds, gm, i_eq = self._mosfet_companion(
                self._pad(state.solution), self.mos_beta, self.mos_vth, self.mos_lambda
            )
            pos = np.where(forward, pattern.mos_pos_forward, pattern.mos_pos_reverse)
            vals = np.concatenate((gds, gds, -gds, -gds, gm, -gm, -gm, gm))
            # The (8, M) position rows ravel group-major, so the stamps that
            # share a cell accumulate in one fixed order on every path.
            data += np.bincount(pos.ravel(), weights=vals, minlength=pattern.nnz + 1)
            rows = np.where(forward, self._mos_rhs_forward, self._mos_rhs_reverse)
            rhs += np.bincount(
                rows.ravel(), weights=np.concatenate((-i_eq, i_eq)), minlength=self._ghost
            )
        return data, rhs

    def _linear_rhs(
        self,
        state: AnalysisState,
        source_scale: float,
        cap_history: Optional[np.ndarray],
    ) -> np.ndarray:
        """The linear right-hand side at ``state`` (sources + cap history).

        Everything but the MOSFET companion currents, in the serial
        accumulation order; independent of the iterate and of gmin, so the
        Newton loop builds it once per solve.
        """
        rhs = np.zeros(self._ghost)
        v_values, i_values = self._waveform_values(state.time_s, source_scale)
        if v_values is not None:
            if self.vs_scale is not None:
                v_values = v_values * self.vs_scale
            rhs[self.vs_rows] += v_values
        if i_values is not None:
            if self.is_scale is not None:
                i_values = i_values * self.is_scale
            np.add.at(rhs, self.is_plus, -i_values)
            np.add.at(rhs, self.is_minus, i_values)

        if state.timestep_s is not None and self.num_capacitors:
            g = self._capacitor_conductance(state.timestep_s, state.integration)
            if state.previous_solution is not None:
                prev = self._pad(state.previous_solution)
                v_prev = prev[self.cap_a] - prev[self.cap_b]
            else:
                v_prev = self.cap_v0
            i_eq = g * v_prev
            if state.integration == "trap":
                if cap_history is None:
                    cap_history = np.array(
                        [c._previous_current for c in self.capacitors], dtype=float
                    )
                i_eq = i_eq + cap_history
            np.add.at(rhs, self.cap_a, i_eq)
            np.add.at(rhs, self.cap_b, -i_eq)
        return rhs

    def _mosfet_companion(
        self,
        padded: np.ndarray,
        beta: np.ndarray,
        vth: np.ndarray,
        lam: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-device linearized channel quantities at the padded iterate(s).

        ``padded`` is ``(size + 1,)`` serial or ``(trials, size + 1)``
        batched; returns ``(forward, gds, gm, i_eq)`` with matching leading
        shape.  Both scatter kernels share every float operation here, which
        is what keeps serial and batched results bit-identical.
        """
        terminals = padded[..., self._mos_terminals]
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

    # ------------------------------------------------------------------ #
    # batched assembly (stacked Monte-Carlo trials)
    # ------------------------------------------------------------------ #

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
        reuse_workspace: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(trials, n, n)`` systems for stacked parameter sets.

        ``solutions`` is the ``(trials, n)`` stack of Newton iterates;
        ``params`` maps perturbable parameter names (see
        :data:`PERTURBABLE_PARAMETERS`) to ``(trials, count)`` stacks — any
        parameter not given uses the compiled (possibly overlaid) value
        vector for every trial.  The matrices are the ``(trials, nnz)``
        pattern data of :meth:`_scatter_batched` placed into zeroed
        matrices, so row ``t`` is bit-identical to a serial
        :meth:`assemble` with trial ``t``'s parameters; this is what makes
        the batched Monte-Carlo path reproduce the per-trial path exactly.

        With ``timestep_s`` set the assembly includes the capacitor
        companion models of the selected ``integration``:
        ``previous_solutions`` is the ``(trials, n)`` stack of the last
        accepted time point (``cap_v0`` when omitted, matching the serial
        path's first-step semantics) and ``cap_history`` the ``(trials,
        num_capacitors)`` trapezoidal history currents.  ``linear_rhs``
        optionally hands in the ``(trials, n + 1)`` linear right-hand side
        (:meth:`_linear_rhs_batched`) that a Newton loop builds once per
        call; the assembly accumulates into it in place and then ignores
        ``time_s``, ``source_scale``, ``previous_solutions`` and
        ``cap_history``.  ``cap_g_rows`` optionally hands in the per-trial
        capacitor companion conductances.

        ``reuse_workspace`` (the batched Newton hot path) assembles into
        preallocated per-compiled scratch buffers instead of fresh arrays —
        same bits, no per-round allocation churn — at the price that the
        returned arrays are only valid until the next workspace-mode
        assembly.  Direct callers keep the allocating default.
        """
        data, rhs = self._scatter_batched(
            solutions, params, gmin, time_s, source_scale, timestep_s, integration,
            previous_solutions, cap_history, linear_rhs, cap_g_rows, reuse_workspace,
        )
        pattern = self.sparsity_pattern()
        trials = data.shape[0]
        cells = self.size * self.size
        if reuse_workspace:
            matrices = self._workspace("dense_matrices", trials, cells, zero=True)
        else:
            matrices = np.zeros((trials, cells))
        matrices[:, pattern.dense_pos] = data[:, : pattern.nnz]
        return matrices.reshape(trials, self.size, self.size), rhs[:, : self.size]

    def _check_solution_stack(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=float)
        if solutions.ndim != 2 or solutions.shape[1] != self.size:
            raise ValueError(
                f"solutions stack has shape {solutions.shape}, expected "
                f"(trials, {self.size})"
            )
        return solutions

    def _batched_cap_g_rows(
        self,
        trials: int,
        cap_c: Optional[np.ndarray],
        timestep_s: Optional[float],
        integration: str,
        cap_g_rows: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Resolve the per-trial capacitor companion conductances.

        ``cap_g_rows`` is a per-march invariant the lockstep caller hands in
        precomputed; derive it here for one-off assemblies.  ``None`` outside
        transient assemblies (companion models are transient-only).
        """
        if timestep_s is None:
            return None
        if cap_g_rows is not None or not self.num_capacitors:
            return cap_g_rows
        if cap_c is None:
            return np.broadcast_to(
                self._capacitor_conductance(timestep_s, integration),
                (trials, self.num_capacitors),
            )
        return self._capacitor_conductance(timestep_s, integration, cap_c)

    def _linear_rhs_batched(
        self,
        trials: int,
        params: Mapping[str, np.ndarray],
        time_s: float,
        source_scale: float,
        integration: str,
        previous_solutions: Optional[np.ndarray],
        cap_history: Optional[np.ndarray],
        cap_g_rows: Optional[np.ndarray],
    ) -> np.ndarray:
        """The stacked linear right-hand side (sources + cap history).

        The per-trial arithmetic mirrors :meth:`_linear_rhs` operation for
        operation, and a row never depends on the other rows of the stack,
        so the batched Newton loop builds it once per call for the whole
        stack and gathers the active rows each round.
        """
        ghost = self._ghost
        trial_offsets = np.arange(trials)[:, None]
        # Independent sources (per-trial scale stacks compose exactly like
        # the serial vs_scale/is_scale overlay multipliers).
        rhs = np.zeros((trials, ghost))
        rhs_flat = rhs.reshape(-1)
        v_values, i_values = self._waveform_values(time_s, source_scale)
        if v_values is not None:
            vs_scale = params.get("vsource_scale", self.vs_scale)
            if vs_scale is not None:
                v_values = v_values * vs_scale
            rhs[:, self.vs_rows] += v_values
        if i_values is not None:
            is_scale = params.get("isource_scale", self.is_scale)
            if is_scale is not None:
                i_values = i_values * is_scale
            i_tile = np.broadcast_to(i_values, (trials, len(self.current_sources)))
            source_idx = np.concatenate((self.is_plus, self.is_minus))
            weights = np.concatenate((-i_tile, i_tile), axis=1)
            rhs_flat += np.bincount(
                (trial_offsets * ghost + source_idx[None, :]).ravel(),
                weights=weights.ravel(),
                minlength=trials * ghost,
            )

        # Capacitor companion history currents, added to the RHS after the
        # sources and before the MOSFET stamps (the serial order).
        if cap_g_rows is not None:
            if previous_solutions is None:
                v_prev = np.broadcast_to(self.cap_v0, (trials, self.num_capacitors))
            else:
                # Scratch only: v_prev below is a gather (copy) from it.
                prev = self._workspace("batched_prev", trials, self.size + 1)
                prev[:, : self.size] = previous_solutions
                prev[:, self.size] = 0.0
                v_prev = prev[:, self.cap_a] - prev[:, self.cap_b]
            i_eq = cap_g_rows * v_prev
            if integration == "trap":
                if cap_history is None:
                    cap_history = np.broadcast_to(
                        np.array(
                            [c._previous_current for c in self.capacitors], dtype=float
                        ),
                        (trials, self.num_capacitors),
                    )
                i_eq = i_eq + cap_history
            np.add.at(
                rhs_flat,
                (trial_offsets * ghost + self.cap_a[None, :]).ravel(),
                i_eq.ravel(),
            )
            np.add.at(
                rhs_flat,
                (trial_offsets * ghost + self.cap_b[None, :]).ravel(),
                (-i_eq).ravel(),
            )
        return rhs

    def _mosfet_companion_batched(
        self, solutions: np.ndarray, params: Mapping[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stacked :meth:`_mosfet_companion` with per-trial parameter stacks."""
        trials = solutions.shape[0]
        # Scratch only: _mosfet_companion gathers (copies) from the padded
        # iterate, so the buffer can be recycled across Newton rounds.
        padded = self._workspace("mos_padded", trials, self.size + 1)
        padded[:, : self.size] = solutions
        padded[:, self.size] = 0.0
        return self._mosfet_companion(
            padded,
            params.get("mos_beta", self.mos_beta),
            params.get("mos_vth", self.mos_vth),
            params.get("mos_lambda", self.mos_lambda),
        )

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
        reuse_workspace: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(trials, nnz)`` CSC data stacks for stacked trials.

        Same arguments as :meth:`assemble_batched`, but returns the pattern
        data itself instead of placing it, so the memory footprint is
        ``trials * nnz`` rather than ``trials * n^2``.  Row ``t`` of the
        returned ``data`` is bit-identical to :meth:`assemble_sparse` with
        trial ``t``'s parameters.
        """
        pattern = self.sparsity_pattern()
        data, rhs = self._scatter_batched(
            solutions, params, gmin, time_s, source_scale, timestep_s, integration,
            previous_solutions, cap_history, linear_rhs, cap_g_rows, reuse_workspace,
        )
        return data[:, : pattern.nnz], rhs[:, : self.size]

    def _scatter_batched(
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
        cap_g_rows: Optional[np.ndarray],
        reuse_workspace: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked assembly kernel: ``(trials, nnz + 1)`` data, ``(trials, n + 1)`` RHS.

        :meth:`_scatter` over a stack, with per-trial parameter stacks.
        When no stack perturbs the linear part (no ``resistor_ohm`` rows,
        and no ``cap_c`` rows if this is a transient assembly), every
        trial's linear data is a broadcast copy of the cached nominal
        :meth:`_base_data`; otherwise it is re-accumulated per trial in the
        base data's order.

        ``gmin`` is one value for the stack or one per trial; the batched
        Newton passes per-trial values once a singular solve has bumped
        some trials' gmin, and those rows take the bumped value's uncached
        base exactly like a serial retry.
        """
        pattern = self.sparsity_pattern()
        params = dict(params or {})
        solutions = self._check_solution_stack(solutions)
        trials = solutions.shape[0]
        slots = pattern.nnz + 1  # trailing trash slot per trial
        trial_offsets = np.arange(trials)[:, None]

        resistance = params.get("resistor_ohm")
        cap_c = params.get("cap_c") if timestep_s is not None else None
        cap_g_rows = self._batched_cap_g_rows(
            trials, cap_c, timestep_s, integration, cap_g_rows
        )
        if resistance is None and cap_c is None:
            if reuse_workspace:
                data = self._workspace("batched_data", trials, slots)
            else:
                data = np.empty((trials, slots))
            if np.ndim(gmin):
                for value in np.unique(gmin):
                    data[gmin == value] = self._base_data(
                        float(value), timestep_s, integration, cache=False
                    )
            else:
                data[:] = self._base_data(gmin, timestep_s, integration)
        else:
            # Static part in the serial base-data accumulation order:
            # static entries, then the gmin diagonal, then the capacitor
            # companions (np.add.at for the capacitors — they may share
            # positions with the static stamps, and the serial path
            # accumulates those sequentially).
            if reuse_workspace:
                data = self._workspace("batched_data", trials, slots, zero=True)
            else:
                data = np.zeros((trials, slots))
            data_flat = data.reshape(-1)
            if self._static_rows.size:
                if resistance is None:
                    data += np.bincount(
                        pattern.static_pos, weights=self._static_vals, minlength=slots
                    )
                else:
                    conductance = 1.0 / np.asarray(resistance, dtype=float)
                    n4 = 4 * len(self.resistors)
                    vals = np.broadcast_to(
                        self._static_vals, (trials, self._static_vals.size)
                    ).copy()
                    vals[:, 0:n4:4] = conductance
                    vals[:, 1:n4:4] = conductance
                    vals[:, 2:n4:4] = -conductance
                    vals[:, 3:n4:4] = -conductance
                    data_flat += np.bincount(
                        (trial_offsets * slots + pattern.static_pos[None, :]).ravel(),
                        weights=vals.ravel(),
                        minlength=trials * slots,
                    )
            data[:, pattern.gmin_diag_pos] += np.reshape(gmin, (-1, 1))
            if cap_g_rows is not None:
                np.add.at(
                    data_flat,
                    (trial_offsets * slots + pattern.cap_pos[None, :]).ravel(),
                    np.concatenate(
                        (cap_g_rows, cap_g_rows, -cap_g_rows, -cap_g_rows), axis=1
                    ).ravel(),
                )
            data[:, pattern.nnz] = 0.0

        if linear_rhs is not None:
            rhs = linear_rhs
        else:
            rhs = self._linear_rhs_batched(
                trials,
                params,
                time_s,
                source_scale,
                integration,
                previous_solutions,
                cap_history,
                cap_g_rows,
            )

        if self.num_mosfets:
            forward, gds, gm, i_eq = self._mosfet_companion_batched(solutions, params)
            pos = np.where(
                forward[:, None, :], pattern.mos_pos_forward, pattern.mos_pos_reverse
            )
            vals = np.concatenate((gds, gds, -gds, -gds, gm, -gm, -gm, gm), axis=1)
            data += np.bincount(
                (trial_offsets[:, :, None] * slots + pos).ravel(),
                weights=vals.ravel(),
                minlength=trials * slots,
            ).reshape(trials, slots)
            rows = np.where(
                forward[:, None, :], self._mos_rhs_forward, self._mos_rhs_reverse
            )
            rhs += np.bincount(
                (trial_offsets[:, :, None] * self._ghost + rows).ravel(),
                weights=np.concatenate((-i_eq, i_eq), axis=1).ravel(),
                minlength=trials * self._ghost,
            ).reshape(trials, self._ghost)

        return data, rhs


class AnalysisEngine:
    """Shared Newton-Raphson solver over a compiled circuit.

    The engine owns the iteration loop and the convergence fallbacks; the
    analyses are thin drivers over it:

    * :meth:`solve_dc` — damped Newton with gmin-stepping and source-stepping
      fallbacks (the DC operating point);
    * :meth:`dc_sweep` — repeated operating points with warm-start
      continuation, reusing the compiled structure across points;
    * :meth:`sweep_many` — a family of sweeps through one compiled circuit
      (per-point continuation inside each family, the previous family's
      solution seeding the next);
    * :meth:`solve_transient` — fixed-step or adaptive (LTE-controlled)
      integration with per-step Newton iteration and vectorized capacitor
      history updates;
    * :meth:`solve_dc_batched` — stacked same-pattern operating points
      (Monte-Carlo trials) solved in batched LAPACK calls;
    * :meth:`solve_transient_batched` — a lockstep fixed-step transient
      march over stacked trials: shared waveform evaluation per step,
      per-trial freeze-on-convergence, batched LAPACK Newton rounds.

    Every linear solve routes through the engine's pluggable
    :class:`~repro.spice.solvers.LinearSolver` backend (``solver=`` on each
    analysis overrides the default per call).
    """

    def __init__(self, circuit: Circuit, solver: Union[None, str, LinearSolver] = None):
        self.circuit = circuit
        self._compiled: Optional[CompiledCircuit] = None
        #: The engine's default linear-solver backend (see
        #: :mod:`repro.spice.solvers`); every analysis accepts a per-call
        #: ``solver=`` override without touching this default.
        self.solver: LinearSolver = get_solver(solver)

    def set_solver(self, solver: Union[None, str, LinearSolver]) -> LinearSolver:
        """Set (and return) the engine's default linear-solver backend."""
        self.solver = get_solver(solver)
        return self.solver

    def _resolve_solver(
        self,
        solver: Union[None, str, LinearSolver],
        threads: Union[None, int, str] = None,
    ) -> LinearSolver:
        if threads is not None:
            return get_solver(solver, threads=threads)
        return self.solver if solver is None else get_solver(solver)

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

    def assemble_system(
        self, state: AnalysisState, source_scale: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble (matrix, rhs) at ``state`` through the compiled path."""
        return self.compiled.assemble(state, source_scale=source_scale)

    # ------------------------------------------------------------------ #
    # the serial Newton loop (_newton_batched is its stacked twin)
    # ------------------------------------------------------------------ #

    def _newton(
        self,
        solution: np.ndarray,
        *,
        gmin: float,
        max_iterations: int,
        tolerance_v: float,
        damping_v: float,
        time_s: float = 0.0,
        timestep_s: Optional[float] = None,
        previous_solution: Optional[np.ndarray] = None,
        integration: str = "be",
        source_scale: float = 1.0,
        cap_history: Optional[np.ndarray] = None,
        solver: Optional[LinearSolver] = None,
        reuse_state: Optional[_NewtonReuseState] = None,
        stall_rounds: Optional[int] = None,
    ) -> Tuple[np.ndarray, int, bool, float]:
        """One Newton-Raphson run; returns (solution, iterations, converged, max_update).

        The linear solve of each iteration goes through ``solver`` (the
        engine's default backend when omitted).  A singular Jacobian bumps
        ``gmin`` an order of magnitude and retries instead of raising, so
        structurally defective circuits report non-convergence rather than
        blowing up the caller.

        ``reuse_state`` (``newton="reuse"``) routes every solve through
        :meth:`_NewtonReuseState.solve`, which keeps the last factorization
        across rounds — and across calls sharing the state, e.g. the steps
        of a transient march — instead of refactorizing each round.  Dense
        assembly ignores it, as :meth:`_newton_batched` does: LAPACK
        refactors on every call, so a frozen dense Jacobian saves nothing.

        ``stall_rounds`` (only :meth:`solve_dc`'s plain run passes it, as
        :data:`NEWTON_STALL_ROUNDS`) stops the run as not converged once
        that many rounds have passed since the smallest ``max_update`` so
        far; a singular round counts as a round without a new best.
        """
        compiled = self.compiled
        if solver is None:
            solver = self.solver
        solver = solver.select(compiled)
        solver.bind(compiled)
        # Pattern-assembly backends (sparse) take CSC data straight from
        # assemble_sparse — no dense matrix is ever formed.
        pattern = (
            compiled.sparsity_pattern() if solver.wants_pattern_assembly else None
        )
        if pattern is not None:
            assemble, solve = compiled.assemble_sparse, solver.solve_pattern
        else:
            assemble, solve = compiled.assemble, solver.solve
            reuse_state = None
        converged = False
        max_update = best_update = float("inf")
        iteration = best_round = 0
        gmin_bumped = False
        # Per-solve invariant, hoisted out of the iteration loop: the linear
        # right-hand side (sources and capacitor history) depends on neither
        # the iterate nor gmin.  Each round assembles into a copy of it.
        linear_rhs = compiled._linear_rhs(
            AnalysisState(
                solution=solution,
                time_s=time_s,
                timestep_s=timestep_s,
                previous_solution=previous_solution,
                integration=integration,
            ),
            source_scale,
            cap_history,
        )
        for iteration in range(1, max_iterations + 1):
            state = AnalysisState(
                solution=solution,
                time_s=time_s,
                timestep_s=timestep_s,
                previous_solution=previous_solution,
                integration=integration,
                gmin=gmin,
            )
            bypassed = False
            try:
                system, rhs = assemble(
                    state, cache_base=not gmin_bumped, linear_rhs=linear_rhs.copy()
                )
                if reuse_state is None:
                    new_solution = solve(system, rhs)
                else:
                    new_solution, bypassed = reuse_state.solve(
                        solver, pattern, solution, system, rhs
                    )
            except np.linalg.LinAlgError:
                gmin = max(gmin * 10.0, 1e-12)
                gmin_bumped = True
                continue

            update = new_solution - solution
            max_update = float(np.abs(update).max()) if update.size else 0.0
            # Per-unknown clamp: a runaway node (e.g. a floating terminal
            # hanging off a cut-off transistor) must not stall the rest.
            update = np.minimum(np.maximum(update, -damping_v), damping_v)
            solution = solution + update
            if reuse_state is not None:
                reuse_state.observe(bypassed, max_update, tolerance_v)

            if max_update < tolerance_v:
                converged = True
                break
            if max_update < best_update:
                best_update, best_round = max_update, iteration
            elif stall_rounds is not None and iteration - best_round >= stall_rounds:
                break
        return solution, iteration, converged, max_update

    # ------------------------------------------------------------------ #
    # DC operating point
    # ------------------------------------------------------------------ #

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
        returns the plain run's last iterate.

        ``refresh`` re-reads element parameter values before solving so
        in-place mutations are honoured; batch drivers that refresh once up
        front (sweeps, transient) pass ``False`` for the inner solves.
        ``solver`` selects the linear-solver backend for this solve (name or
        :class:`~repro.spice.solvers.LinearSolver` instance; the engine's
        default backend when omitted).

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

        resolved = self._resolve_solver(solver)
        reuse_state = _NewtonReuseState() if _wants_newton_reuse(newton) else None
        counts_before = resolved.solver_stats()
        controls = dict(
            max_iterations=max_iterations,
            tolerance_v=tolerance_v,
            damping_v=damping_v,
            time_s=time_s,
            solver=resolved,
        )
        solution, total_iterations, converged, max_update = self._newton(
            solution,
            gmin=gmin,
            reuse_state=reuse_state,
            stall_rounds=NEWTON_STALL_ROUNDS,
            **controls,
        )
        strategy = "newton" if converged else "failed"
        if not converged:
            for ladder, rungs in _fallback_ladders(gmin):
                stepped = circuit.initial_solution()
                for step_gmin, scale in rungs:
                    stepped, used, final_ok, max_update = self._newton(
                        stepped, gmin=step_gmin, source_scale=scale, **controls
                    )
                    total_iterations += used
                if final_ok:
                    solution, converged, strategy = stepped, True, ladder
                    break

        factorizations, reuses = self._counts_delta(
            resolved.solver_stats(), counts_before
        )
        return OperatingPoint(
            circuit=circuit,
            solution=solution,
            iterations=total_iterations,
            converged=converged,
            max_residual=max_update,
            convergence_info=ConvergenceInfo(
                strategy=strategy,
                iterations=total_iterations,
                final_max_update_v=max_update,
                factorizations=factorizations,
                factorization_reuses=reuses,
            ),
        )

    # ------------------------------------------------------------------ #
    # batched DC solves (stacked Monte-Carlo trials)
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
        time_s: float = 0.0,
        timestep_s: Optional[float] = None,
        previous_solutions: Optional[np.ndarray] = None,
        integration: str = "be",
        cap_history: Optional[np.ndarray] = None,
        cap_g_rows: Optional[np.ndarray] = None,
        source_scale: float = 1.0,
        solver: LinearSolver,
        reuse_states: Optional[List[_NewtonReuseState]] = None,
        stall_rounds: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Newton iteration over stacked systems; one linear solve per round.

        Mutates and returns ``solutions`` (``(trials, n)``) together with
        per-trial ``(iterations, converged, max_updates)`` arrays.  Each
        trial's update sequence — assembly, solve, damping clamp,
        convergence test — is element-for-element the same arithmetic as a
        serial :meth:`_newton` run with that trial's parameters, and a trial
        is frozen the moment it converges, so batched results match the
        per-trial path bit for bit.  A trial whose system is singular
        follows :meth:`_newton`'s rule inside the stack: the round counts as
        an iteration, its iterate stays put and its own gmin rises an order
        of magnitude for the rest of the call, while every other trial
        keeps its round.  ``stall_rounds`` applies :meth:`_newton`'s stall
        rule per trial: a trial that goes that many rounds past its own
        best update stops unconverged at that round and leaves the stack.

        With ``timestep_s`` set this is one lockstep *transient* Newton
        round over the stack: ``previous_solutions``/``cap_history`` carry
        the per-trial capacitor companion state, and the source waveforms
        are evaluated once for the whole stack.  ``source_scale`` scales
        every independent source (the batched source-stepping ladder).

        ``reuse_states`` (one :class:`_NewtonReuseState` per stack row)
        switches the sparse backends to per-trial modified Newton: each
        active trial takes its round through its own state's
        :meth:`~_NewtonReuseState.solve`, exactly as :meth:`_newton` does,
        so it keeps its frozen LU across rounds — and across the calls of a
        lockstep march sharing the states — refactorizing one trial at a
        time only where its state asks for it.  Dense assembly ignores it,
        as :meth:`_newton` does.
        """
        compiled = self.compiled
        trials = solutions.shape[0]
        iterations = np.zeros(trials, dtype=int)
        converged = np.zeros(trials, dtype=bool)
        max_updates = np.full(trials, np.inf)
        best_updates = np.full(trials, np.inf)
        best_rounds = np.zeros(trials, dtype=int)
        active = np.ones(trials, dtype=bool)
        # Per-trial gmin, handed to the assembly only once a singular solve
        # has bumped some trial's value (the common path keeps the scalar).
        gmins = np.full(trials, gmin)
        bumped = False
        solver = solver.select(compiled, trials)
        solver.bind(compiled)
        # Pattern-assembly backends (sparse) get (trials, nnz) CSC data
        # stacks instead of dense (trials, n, n) stacks — same per-trial
        # arithmetic, trials * nnz memory instead of trials * n^2.
        pattern = (
            compiled.sparsity_pattern() if solver.wants_pattern_assembly else None
        )
        if pattern is not None:
            assemble = compiled.assemble_sparse_batched
            solve_stack, solve_one = solver.solve_pattern_batched, solver.solve_pattern
        else:
            assemble = compiled.assemble_batched
            solve_stack, solve_one = solver.solve_batched, solver.solve
        use_reuse = reuse_states is not None and pattern is not None
        # Per-call invariant, hoisted out of the rounds: the linear RHS stack
        # (sources and capacitor history) depends on neither the iterates nor
        # gmin, and each of its rows only on its own trial.  Every round
        # assembles into a copy of the rows it needs, and recycles the
        # assembly's scratch buffers (the hot path owns the assembled arrays
        # for exactly one round).
        linear_rhs = compiled._linear_rhs_batched(
            trials,
            params,
            time_s,
            source_scale,
            integration,
            previous_solutions,
            cap_history,
            compiled._batched_cap_g_rows(
                trials,
                params.get("cap_c") if timestep_s is not None else None,
                timestep_s,
                integration,
                cap_g_rows,
            ),
        )
        for iteration in range(1, max_iterations + 1):
            index = np.flatnonzero(active)
            subset = {name: stack[index] for name, stack in params.items()}
            matrices, rhs = assemble(
                solutions[index],
                subset,
                gmin=gmins[index] if bumped else gmin,
                timestep_s=timestep_s,
                integration=integration,
                linear_rhs=linear_rhs[index],
                cap_g_rows=None if cap_g_rows is None else cap_g_rows[index],
                reuse_workspace=True,
            )
            bypassed: Optional[np.ndarray] = None
            singular: Optional[np.ndarray] = None
            if use_reuse:
                # Row ``row`` of the compressed stack is trial ``trial``,
                # whose own state holds its frozen LU across rounds.
                new_solutions = np.empty_like(rhs)
                bypassed = np.zeros(index.size, dtype=bool)
                singular = np.zeros(index.size, dtype=bool)
                for row, trial in enumerate(index):
                    try:
                        new_solutions[row], bypassed[row] = reuse_states[trial].solve(
                            solver, pattern, solutions[trial], matrices[row], rhs[row]
                        )
                    except np.linalg.LinAlgError:
                        singular[row] = True
            else:
                try:
                    new_solutions = solve_stack(matrices, rhs)
                except np.linalg.LinAlgError:
                    # A singular system anywhere raises for the whole stack.
                    # Isolate it: re-solve the round trial by trial (same
                    # LAPACK routine, bit-identical results) and find the
                    # genuinely singular trials.
                    new_solutions = np.empty_like(rhs)
                    singular = np.zeros(index.size, dtype=bool)
                    for row in range(index.size):
                        try:
                            new_solutions[row] = solve_one(matrices[row], rhs[row])
                        except np.linalg.LinAlgError:
                            singular[row] = True
            if singular is not None and singular.any():
                # _newton's LinAlgError rule per trial: the round counts,
                # the iterate stays, the gmin rises for the rest of the call.
                stuck = index[singular]
                gmins[stuck] = np.maximum(gmins[stuck] * 10.0, 1e-12)
                bumped = True
                iterations[stuck] = iteration
                index = index[~singular]
                new_solutions = new_solutions[~singular]
                if bypassed is not None:
                    bypassed = bypassed[~singular]
            update = new_solutions - solutions[index]
            updates_max = (
                np.max(np.abs(update), axis=1) if update.size else np.zeros(len(index))
            )
            update = np.minimum(np.maximum(update, -damping_v), damping_v)
            solutions[index] = solutions[index] + update
            iterations[index] = iteration
            max_updates[index] = updates_max
            if use_reuse:
                for row, trial in enumerate(index):
                    reuse_states[trial].observe(
                        bool(bypassed[row]), float(updates_max[row]), tolerance_v
                    )
            done = updates_max < tolerance_v
            if done.any():
                converged[index[done]] = True
                active[index[done]] = False
            if stall_rounds is not None:
                better = updates_max < best_updates[index]
                best_updates[index[better]] = updates_max[better]
                best_rounds[index[better]] = iteration
                stalled = ~done & (iteration - best_rounds[index] >= stall_rounds)
                active[index[stalled]] = False
            if not active.any():
                break
        return solutions, iterations, converged, max_updates

    def _parameter_stacks(
        self,
        params: Optional[Mapping[str, np.ndarray]],
        trials: Optional[int],
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Validate ``(trials, count)`` parameter stacks; returns (stacks, trials).

        Shared by :meth:`solve_dc_batched` and :meth:`solve_transient_batched`.
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
        solver: Union[None, str, LinearSolver] = "batched",
        newton: Optional[str] = None,
        threads: Union[None, int, str] = None,
    ):
        """Solve many same-pattern DC operating points in stacked batches.

        ``params`` maps perturbable parameter names (see
        :data:`PERTURBABLE_PARAMETERS`) to ``(trials, count)`` stacks — one
        row per trial; parameters not given keep the compiled values for
        every trial.  This is the Monte-Carlo fast path: all trials share
        one compiled structure and every Newton round solves the whole
        stack in a single batched LAPACK call instead of ``trials`` separate
        dense solves.

        ``initial_guess`` may be one ``(n,)`` vector (shared warm start) or
        a ``(trials, n)`` stack.  Every trial follows :meth:`solve_dc`'s
        policy inside the stack: a singular system bumps that trial's gmin
        as :meth:`_newton` does, a trial whose plain Newton stalls for
        :data:`NEWTON_STALL_ROUNDS` rounds leaves the plain run at the round
        the serial run would, and the trials the plain Newton cannot
        converge run :meth:`solve_dc`'s gmin-stepping and source-stepping
        ladders together (at their full budget), so each trial matches the
        per-trial path bit for bit (its strategy reads ``"batched-newton"``
        where the serial one reads ``"newton"``).

        ``newton="reuse"`` runs per-trial modified Newton on either sparse
        backend (each trial keeps its LU until its contraction stalls,
        exactly as a per-trial :meth:`solve_dc` run does); ``threads`` fans
        the per-trial sparse factorizations of full-Newton rounds across a
        thread pool (see :class:`~repro.spice.solvers.BatchedSparseSolver`;
        reuse-mode refactorizations run trial by trial) and requires a
        sparse-batched-capable ``solver`` spec (``"sparse-batched"`` or
        ``"auto"``).

        Returns a :class:`~repro.spice.dcop.BatchedOperatingPoints`.
        """
        from repro.spice.dcop import BatchedOperatingPoints

        circuit = self.circuit
        if circuit.system_size == 0:
            raise ValueError("the circuit has no unknowns to solve for")
        compiled = self.compiled
        if refresh:
            compiled.refresh_values()
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

        resolved = self._resolve_solver(solver, threads)
        want_reuse = _wants_newton_reuse(newton)
        counts_before = resolved.solver_stats()
        controls = dict(
            max_iterations=max_iterations,
            tolerance_v=tolerance_v,
            damping_v=damping_v,
            time_s=time_s,
            solver=resolved,
        )
        solutions, iterations, converged, residuals = self._newton_batched(
            solutions,
            stacks,
            gmin=gmin,
            reuse_states=(
                [_NewtonReuseState() for _ in range(count)] if want_reuse else None
            ),
            stall_rounds=NEWTON_STALL_ROUNDS,
            **controls,
        )
        strategies = ["batched-newton" if ok else "failed" for ok in converged]

        # The serial fallback ladders, each run over the whole still-failed
        # subset with one batched solve per Newton round.
        pending = np.flatnonzero(~converged)
        for ladder, rungs in _fallback_ladders(gmin):
            if pending.size == 0:
                break
            sub = {name: stack[pending] for name, stack in stacks.items()}
            stepped = np.zeros((pending.size, size))
            for step_gmin, scale in rungs:
                stepped, used, final_ok, final_resid = self._newton_batched(
                    stepped, sub, gmin=step_gmin, source_scale=scale, **controls
                )
                iterations[pending] += used
            # Serial solve_dc reports the last attempted Newton update: the
            # final rung's, for the failures too.
            residuals[pending] = final_resid
            fixed = pending[final_ok]
            solutions[fixed] = stepped[final_ok]
            converged[fixed] = True
            for trial in fixed:
                strategies[trial] = ladder
            pending = pending[~final_ok]

        factorizations, reuses = self._counts_delta(
            resolved.solver_stats(), counts_before
        )
        return BatchedOperatingPoints(
            circuit=circuit,
            solutions=solutions,
            iterations=iterations,
            converged=converged,
            max_residuals=residuals,
            strategies=tuple(strategies),
            factorizations=factorizations,
            factorization_reuses=reuses,
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
        solver = self._resolve_solver(solver)
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
        solver = self._resolve_solver(solver)
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
        after every accepted step.

        With ``adaptive=False`` (the default) the march uses the fixed
        ``timestep_s`` grid, bit-compatible with the historical behaviour.
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
        solve shares the mode).  The default refactorizes every round,
        bit-compatible with earlier releases.

        Either way the result carries a
        :class:`~repro.spice.transient.TransientConvergenceInfo` with the
        Newton totals, the controller's step-acceptance statistics and the
        march's factorization/reuse counts.
        """
        _check_transient_arguments(stop_time_s, timestep_s, integration)
        compiled = self.compiled
        compiled.refresh_values()
        for capacitor in compiled.capacitors:
            capacitor.reset()

        resolved = self._resolve_solver(solver)
        reuse_state = _NewtonReuseState() if _wants_newton_reuse(newton) else None
        counts_before = resolved.solver_stats()
        if use_initial_conditions:
            initial_solution = self.circuit.initial_solution()
        else:
            # The cold warm start always runs full Newton: far from the
            # operating point the Jacobian changes too fast for a frozen
            # factorization to contract, so reuse mode would only thrash
            # (refactor, stall, refactor) before the march even begins.
            initial_solution = self.solve_dc(
                gmin=gmin, time_s=0.0, refresh=False, solver=resolved
            ).solution.copy()

        controls = dict(
            max_newton_iterations=max_newton_iterations,
            tolerance_v=tolerance_v,
            gmin=gmin,
            integration=integration,
            solver=resolved,
            reuse_state=reuse_state,
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
            result = self._transient_fixed(
                initial_solution,
                stop_time_s,
                timestep_s,
                **controls,
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

    def _transient_fixed(
        self,
        initial_solution: np.ndarray,
        stop_time_s: float,
        timestep_s: float,
        *,
        max_newton_iterations: int,
        tolerance_v: float,
        gmin: float,
        integration: str,
        solver: LinearSolver,
        reuse_state: Optional[_NewtonReuseState] = None,
    ):
        """The historical fixed-step march (bit-compatible parity mode)."""
        from repro.spice.transient import TransientConvergenceInfo, TransientResult

        circuit = self.circuit
        compiled = self.compiled
        cap_history = np.zeros(compiled.num_capacitors)

        steps = int(round(stop_time_s / timestep_s))
        times = np.linspace(0.0, steps * timestep_s, steps + 1)

        current_solution = initial_solution
        solutions = np.zeros((steps + 1, circuit.system_size))
        solutions[0] = current_solution
        all_converged = True
        newton_total = 0
        worst_residual = 0.0

        previous_solution = current_solution.copy()
        for step in range(1, steps + 1):
            time = times[step]
            solution, used, converged, residual = self._newton(
                current_solution.copy(),
                gmin=gmin,
                max_iterations=max_newton_iterations,
                tolerance_v=tolerance_v,
                damping_v=1.0,
                time_s=time,
                timestep_s=timestep_s,
                previous_solution=previous_solution,
                integration=integration,
                cap_history=cap_history if integration == "trap" else None,
                solver=solver,
                reuse_state=reuse_state,
            )
            newton_total += used
            worst_residual = max(worst_residual, residual)
            if not converged:
                all_converged = False
            cap_history = self._accept_step(
                cap_history, solution, previous_solution, timestep_s, integration
            )

            solutions[step] = solution
            previous_solution = solution.copy()
            current_solution = solution

        self._mirror_capacitor_history(
            cap_history, solutions[-1], solutions[-2], timestep_s, integration
        )

        return TransientResult(
            circuit=circuit,
            time_s=times,
            solutions=solutions,
            converged=all_converged,
            convergence_info=TransientConvergenceInfo(
                strategy="fixed-step",
                newton_iterations=newton_total,
                max_newton_residual_v=worst_residual,
                accepted_steps=steps,
                rejected_steps=0,
                min_step_s=timestep_s,
                max_step_s=timestep_s,
            ),
        )

    def _accept_step(
        self,
        cap_history: np.ndarray,
        solution: np.ndarray,
        previous_solution: np.ndarray,
        timestep_s: float,
        integration: str,
    ) -> np.ndarray:
        """Advance the trapezoidal capacitor history past one accepted step.

        Backward Euler keeps no history (its companion current only uses
        the previous voltage, gathered during assembly), so it returns
        ``cap_history`` unchanged.  Returns the new ``cap_history``.
        """
        compiled = self.compiled
        if integration != "trap" or not compiled.num_capacitors:
            return cap_history
        cap_g = compiled._capacitor_conductance(timestep_s, integration)
        return cap_g * compiled._cap_dv(solution, previous_solution) - cap_history

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
        solver: LinearSolver,
        reuse_state: Optional[_NewtonReuseState] = None,
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
        cap_history = np.zeros(compiled.num_capacitors)
        breakpoints = self._waveform_breakpoints(stop_time_s)

        times: List[float] = [0.0]
        rows: List[np.ndarray] = [initial_solution.copy()]
        previous_solution = initial_solution.copy()
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

            solution, used, converged, residual = self._newton(
                previous_solution.copy(),
                gmin=gmin,
                max_iterations=max_newton_iterations,
                tolerance_v=tolerance_v,
                damping_v=1.0,
                time_s=time + dt,
                timestep_s=dt,
                previous_solution=previous_solution,
                integration=integration,
                cap_history=cap_history if integration == "trap" else None,
                solver=solver,
                reuse_state=reuse_state,
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
            rows.append(solution.copy())
            accepted += 1
            smallest_dt = min(smallest_dt, dt)
            largest_dt = max(largest_dt, dt)

            cap_history = self._accept_step(
                cap_history, solution, previous_solution, dt, integration
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
        if len(rows) >= 2:
            self._mirror_capacitor_history(
                cap_history, solutions[-1], solutions[-2], previous_dt, integration
            )

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
        solver: Union[None, str, LinearSolver] = "batched",
        newton: Optional[str] = None,
        threads: Union[None, int, str] = None,
    ):
        """Fixed-step transient analysis of many stacked trials in lockstep.

        All trials share the circuit topology (and the fixed ``timestep_s``
        grid) but carry their own parameter stacks (``params`` maps names
        from :data:`PERTURBABLE_PARAMETERS` to ``(trials, count)`` rows).
        Every timestep advances the whole stack together: each Newton round
        assembles ``(trials, n, n)`` systems through
        :meth:`CompiledCircuit.assemble_batched` and solves them in one
        batched LAPACK call, with three structural savings over per-trial
        marching:

        * source waveforms and breakpoint-free step timing are evaluated
          once per step, not once per trial;
        * a trial is frozen the moment its step converges, so easy trials
          stop paying Newton rounds for hard ones;
        * per-trial capacitor companion histories advance vectorized.

        The per-trial arithmetic — DC warm start, per-step Newton updates,
        damping clamp, convergence test, capacitor history — mirrors
        :meth:`solve_transient`'s fixed-step path operation for operation,
        so every trial's waveform is bit-identical to a serial
        ``solve_transient`` run with that trial's parameter overlay on the
        same grid.  Failures follow the serial rules inside the stack: a
        singular system bumps that trial's gmin as :meth:`_newton` does,
        and a trial whose step does not converge keeps its last iterate and
        marches on, as :meth:`_transient_fixed` does, with ``converged``
        false and the step's update in its worst residual.

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
        size = circuit.system_size
        resolved = self._resolve_solver(solver, threads)
        want_reuse = _wants_newton_reuse(newton)
        reuse_states = (
            [_NewtonReuseState() for _ in range(count)] if want_reuse else None
        )
        counts_before = resolved.solver_stats()

        # Per-trial DC warm start at t = 0, exactly like the serial path
        # (solve_dc defaults; solve_dc_batched runs the serial ladders).
        if use_initial_conditions:
            solutions = np.tile(circuit.initial_solution(), (count, 1))
        else:
            # Cold warm start at full Newton, exactly like solve_transient:
            # reuse mode only pays off once the march tracks a slowly
            # drifting Jacobian.
            solutions = self.solve_dc_batched(
                stacks, trials=count, gmin=gmin, time_s=0.0, refresh=False,
                solver=resolved,
            ).solutions.copy()

        steps = int(round(stop_time_s / timestep_s))
        times = np.linspace(0.0, steps * timestep_s, steps + 1)
        waveforms = np.zeros((count, steps + 1, size))
        waveforms[:, 0, :] = solutions
        newton_totals = np.zeros(count, dtype=int)
        worst_residuals = np.zeros(count)
        converged = np.ones(count, dtype=bool)
        cap_history = np.zeros((count, compiled.num_capacitors))
        # March-wide invariant: the per-trial companion conductances, handed
        # to every Newton round (and reused by the trapezoidal history
        # update) instead of being re-derived per assembly.
        cap_g = compiled._batched_cap_g_rows(
            count, stacks.get("cap_c"), timestep_s, integration, None
        )

        previous = solutions
        for step in range(1, steps + 1):
            current, iters, conv, resid = self._newton_batched(
                previous.copy(),
                stacks,
                gmin=gmin,
                max_iterations=max_newton_iterations,
                tolerance_v=tolerance_v,
                damping_v=1.0,
                time_s=times[step],
                timestep_s=timestep_s,
                previous_solutions=previous,
                integration=integration,
                cap_history=cap_history if integration == "trap" else None,
                cap_g_rows=cap_g,
                solver=resolved,
                reuse_states=reuse_states,
            )
            newton_totals += iters
            converged &= conv
            # fmax, like the serial march's max(): a NaN update never
            # becomes the worst residual.
            worst_residuals = np.fmax(worst_residuals, resid)
            waveforms[:, step, :] = current
            if cap_g is not None and integration == "trap":
                cap_history = cap_g * compiled._cap_dv(current, previous) - cap_history
            previous = current

        factorizations, reuses = self._counts_delta(
            resolved.solver_stats(), counts_before
        )
        return BatchedTransientResult(
            circuit=circuit,
            time_s=times,
            solutions=waveforms,
            converged=converged,
            newton_iterations=newton_totals,
            max_residuals=worst_residuals,
            strategies=("lockstep",) * count,
            factorizations=factorizations,
            factorization_reuses=reuses,
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

    def _mirror_capacitor_history(
        self,
        cap_history: np.ndarray,
        last_solution: np.ndarray,
        previous_solution: np.ndarray,
        last_timestep_s: float,
        integration: str,
    ) -> None:
        """Mirror the final companion history onto the capacitor elements.

        Keeps the per-element stamp path (the reference oracle) in agreement
        with the engine's state after a transient run, exactly as the
        per-element ``update_history()`` calls would leave it.
        """
        compiled = self.compiled
        if not compiled.num_capacitors:
            return
        if integration == "trap":
            final_history = cap_history
        else:
            final_history = compiled._capacitor_conductance(
                last_timestep_s, integration
            ) * compiled._cap_dv(last_solution, previous_solution)
        for capacitor, history in zip(compiled.capacitors, final_history):
            capacitor._previous_current = float(history)


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


def sweep_many(
    circuit: Circuit,
    source: Union[VoltageSource, CurrentSource, str],
    families: Mapping[Hashable, Sequence[float]],
    configure: Optional[Callable[[Hashable], None]] = None,
    gmin: float = 1e-12,
    max_iterations: int = 200,
    solver: Union[None, str, LinearSolver] = None,
    newton: Optional[str] = None,
) -> Dict[Hashable, object]:
    """Run a family of DC sweeps through one compiled circuit.

    Convenience wrapper over :meth:`AnalysisEngine.sweep_many`; see there.
    """
    return get_engine(circuit).sweep_many(
        source,
        families,
        configure=configure,
        gmin=gmin,
        max_iterations=max_iterations,
        solver=solver,
        newton=newton,
    )
