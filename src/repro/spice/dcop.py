"""DC operating-point result types.

The Newton iteration, gmin stepping and source stepping all live in
:class:`repro.spice.engine.AnalysisEngine`
(:meth:`~repro.spice.engine.AnalysisEngine.solve_dc`); this module keeps
the :class:`OperatingPoint` result type it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.spice.netlist import AnalysisState, Circuit
from repro.spice.elements.sources import VoltageSource


@dataclass(frozen=True)
class ConvergenceInfo:
    """How a DC solve converged (or failed).

    Attributes
    ----------
    strategy:
        ``"newton"`` when the plain damped Newton iteration converged,
        ``"gmin-stepping"`` / ``"source-stepping"`` when the corresponding
        fallback rescued the solve, ``"failed"`` when nothing converged.
    iterations:
        Total Newton iterations spent, summed across all fallback stages.
    final_max_update_v:
        Largest per-unknown update of the last Newton iteration [V]; this is
        the engine's convergence residual.
    factorizations / factorization_reuses:
        Numeric matrix factorizations performed during the solve, and solves
        served by an already-computed factorization (``newton="reuse"``
        solves through its held LU).  Zero for solver backends
        that do not factor (dense ``lstsq``-style paths).
    """

    strategy: str
    iterations: int
    final_max_update_v: float
    factorizations: int = 0
    factorization_reuses: int = 0

    @property
    def used_fallback(self) -> bool:
        """True when a fallback strategy produced (or attempted) the result."""
        return self.strategy != "newton"


@dataclass
class OperatingPoint:
    """Converged DC solution of a circuit.

    Attributes
    ----------
    circuit:
        The analysed circuit (kept for node-name lookups).
    solution:
        Raw MNA unknown vector (node voltages then branch currents).
    iterations:
        Newton iterations used (summed across fallback stages).
    converged:
        Whether the iteration met its tolerances.
    max_residual:
        Final maximum absolute update (V) across unknowns.
    convergence_info:
        Which strategy produced the solution (never silently: a solve that
        needed gmin or source stepping reports it here).
    """

    circuit: Circuit
    solution: np.ndarray
    iterations: int
    converged: bool
    max_residual: float
    convergence_info: Optional[ConvergenceInfo] = None

    def voltage(self, node_name: str) -> float:
        """Voltage of a named node [V]."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return 0.0
        return float(self.solution[index])

    def voltages(self) -> Dict[str, float]:
        """All node voltages by name."""
        return {name: self.voltage(name) for name in self.circuit.node_names}

    def source_current(self, source: "VoltageSource | str") -> float:
        """Current through a voltage source [A].

        Positive current flows from the positive terminal through the source
        to the negative terminal (the usual SPICE convention, so a supply
        sourcing current reports a negative value).
        """
        if isinstance(source, str):
            source = self.circuit.element(source)
        if not isinstance(source, VoltageSource):
            raise TypeError("source_current expects a VoltageSource or its name")
        return float(self.solution[source.branch_position(self.circuit)])

    def as_state(self) -> AnalysisState:
        """Wrap the solution in an :class:`AnalysisState` (for element queries)."""
        return AnalysisState(solution=self.solution.copy())


@dataclass
class BatchedOperatingPoints:
    """Stacked DC solutions of many same-pattern trials (one solve batch).

    Produced by :meth:`repro.spice.engine.AnalysisEngine.solve_dc_batched`:
    all trials share the circuit topology, differing only in their compiled
    parameter stacks, and the accessors extract whole per-trial columns at
    once.

    Attributes
    ----------
    circuit:
        The analysed circuit.
    solutions:
        ``(trials, n)`` stack of MNA solutions, one row per trial.
    iterations / converged / max_residuals:
        Per-trial Newton statistics (arrays of length ``trials``).
    strategies:
        Per-trial convergence strategy, named as by
        :meth:`~repro.spice.engine.AnalysisEngine.solve_dc`
        (``"gmin-stepping"`` / ``"source-stepping"`` / ``"failed"``),
        except that the stacked plain Newton reports ``"batched-newton"``
        where the serial one reports ``"newton"``.
    """

    circuit: Circuit
    solutions: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    max_residuals: np.ndarray
    strategies: Tuple[str, ...]
    #: Aggregate factorization counters over the whole batch (not per trial:
    #: stacked factorizations are shared bookkeeping across the live set).
    factorizations: int = 0
    factorization_reuses: int = 0

    def __len__(self) -> int:
        return self.solutions.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    def voltage(self, node_name: str) -> np.ndarray:
        """Voltage of a named node across all trials [V]."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return np.zeros(len(self))
        return self.solutions[:, index].copy()

    def source_current(self, source: "VoltageSource | str") -> np.ndarray:
        """Current through a voltage source across all trials [A]."""
        if isinstance(source, str):
            source = self.circuit.element(source)
        if not isinstance(source, VoltageSource):
            raise TypeError("source_current expects a VoltageSource or its name")
        return self.solutions[:, source.branch_position(self.circuit)].copy()

    def point(self, trial: int) -> OperatingPoint:
        """One trial's result as an ordinary :class:`OperatingPoint`."""
        return OperatingPoint(
            circuit=self.circuit,
            solution=self.solutions[trial],
            iterations=int(self.iterations[trial]),
            converged=bool(self.converged[trial]),
            max_residual=float(self.max_residuals[trial]),
            convergence_info=ConvergenceInfo(
                strategy=self.strategies[trial],
                iterations=int(self.iterations[trial]),
                final_max_update_v=float(self.max_residuals[trial]),
            ),
        )
