"""Transient analysis result types.

The time-marching loop, the per-step Newton iteration and the vectorized
capacitor companion-history updates live in
:class:`repro.spice.engine.AnalysisEngine`
(:meth:`~repro.spice.engine.AnalysisEngine.solve_transient`); this module
keeps the :class:`TransientResult` type and the
:class:`TransientConvergenceInfo` step/Newton statistics record.

Backward-Euler and trapezoidal integration are offered with either a fixed
timestep (the march that
:meth:`~repro.spice.engine.AnalysisEngine.solve_transient_batched` runs on
a lockstep stack, here on a stack of one; entirely adequate for the
paper's circuits whose time constants are set by the 500 kOhm pull-up
and femto-farad load capacitors) or an adaptive LTE-based step-size
controller (``adaptive=True``), which cuts the step count on waveforms
with long settled stretches — the dominant per-trial cost of a
Monte-Carlo transient study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.spice.elements.sources import VoltageSource
from repro.spice.netlist import Circuit


@dataclass(frozen=True)
class TransientConvergenceInfo:
    """How a transient march stepped and converged.

    The transient counterpart of :class:`~repro.spice.dcop.ConvergenceInfo`:
    attached to every :class:`TransientResult` so a run rescued by many
    Newton iterations — or an adaptive run that rejected half its steps —
    is never silent.

    Attributes
    ----------
    strategy:
        ``"fixed-step"`` or ``"adaptive"``.
    newton_iterations:
        Total Newton iterations summed over every attempted step.
    max_newton_residual_v:
        Worst final per-step Newton update [V] across accepted steps.
    accepted_steps / rejected_steps:
        Step-acceptance statistics of the controller (a fixed-step run
        accepts every step by construction).
    min_step_s / max_step_s:
        Smallest and largest accepted step size [s].
    factorizations / factorization_reuses:
        Numeric matrix factorizations performed over the whole march
        (warm start included), and solves served by an already-computed
        factorization (``newton="reuse"`` solves through its held LU).  Zero for non-factoring solver backends.
    """

    strategy: str
    newton_iterations: int
    max_newton_residual_v: float
    accepted_steps: int
    rejected_steps: int
    min_step_s: float
    max_step_s: float
    factorizations: int = 0
    factorization_reuses: int = 0

    @property
    def total_steps(self) -> int:
        """Attempted steps (accepted + rejected)."""
        return self.accepted_steps + self.rejected_steps

    @property
    def acceptance_fraction(self) -> float:
        """Fraction of attempted steps that were accepted."""
        total = self.total_steps
        return float(self.accepted_steps) / total if total else 1.0


@dataclass
class TransientResult:
    """Waveforms produced by a transient analysis.

    Attributes
    ----------
    circuit:
        The analysed circuit.
    time_s:
        Time points (including t = 0).  Uniformly spaced for fixed-step
        runs; the accepted-step grid for adaptive runs.
    solutions:
        Matrix of MNA solutions, one row per time point.
    converged:
        False if any time step failed to converge (the run still completes).
    convergence_info:
        Step-acceptance and Newton statistics of the march (see
        :class:`TransientConvergenceInfo`).
    """

    circuit: Circuit
    time_s: np.ndarray
    solutions: np.ndarray
    converged: bool
    convergence_info: Optional[TransientConvergenceInfo] = None

    def voltage(self, node_name: str) -> np.ndarray:
        """Waveform of a named node [V] (zeros for ground)."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return np.zeros_like(self.time_s)
        return self.solutions[:, index]

    def source_current(self, source_name: str) -> np.ndarray:
        """Current waveform through a voltage source [A]."""
        source = self.circuit.element(source_name)
        if not isinstance(source, VoltageSource):
            raise TypeError("source_current expects the name of a VoltageSource")
        return self.solutions[:, source.branch_position(self.circuit)]

    def sample_voltage(self, node_name: str, time_s: float) -> float:
        """Node voltage interpolated at an arbitrary time."""
        return float(np.interp(time_s, self.time_s, self.voltage(node_name)))

    def sample_voltages(self, node_name: str, times_s: Sequence[float]) -> np.ndarray:
        """Node voltage interpolated at several times at once [V]."""
        return np.interp(np.asarray(times_s, dtype=float), self.time_s, self.voltage(node_name))

    def final_voltages(self) -> Dict[str, float]:
        """Node voltages at the final time point."""
        return {
            name: float(self.solutions[-1, self.circuit.node_index(name)])
            for name in self.circuit.node_names
        }


@dataclass
class BatchedTransientResult:
    """Stacked transient waveforms of many lockstep Monte-Carlo trials.

    Produced by
    :meth:`repro.spice.engine.AnalysisEngine.solve_transient_batched`: all
    trials share the circuit topology and the fixed time grid, differing
    only in their compiled parameter stacks.

    Attributes
    ----------
    circuit:
        The analysed circuit.
    time_s:
        The shared fixed-step time axis (including t = 0).
    solutions:
        ``(trials, steps + 1, n)`` stack of MNA solutions.
    converged:
        Per-trial flag: every timestep of the trial converged.
    newton_iterations:
        Per-trial Newton totals over the march (the t = 0 DC warm start is
        not counted, matching :class:`TransientConvergenceInfo` semantics).
    max_residuals:
        Worst final per-step Newton update [V] per trial.
    strategies:
        ``"lockstep"`` for every trial of the batched march (a failing trial
        stays in the march, as in the serial fixed-step march); the
        per-trial path reports ``"fixed-step"``.
    """

    circuit: Circuit
    time_s: np.ndarray
    solutions: np.ndarray
    converged: np.ndarray
    newton_iterations: np.ndarray
    max_residuals: np.ndarray
    strategies: tuple
    #: Aggregate factorization counters over the whole batched march (not
    #: per trial: stacked factorizations are shared across the live set).
    factorizations: int = 0
    factorization_reuses: int = 0

    def __len__(self) -> int:
        return self.solutions.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def total_newton_iterations(self) -> int:
        return int(self.newton_iterations.sum())

    def voltage(self, node_name: str) -> np.ndarray:
        """Waveforms of a named node across all trials: ``(trials, steps + 1)``."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return np.zeros(self.solutions.shape[:2])
        return self.solutions[:, :, index].copy()

    def trial(self, trial: int) -> TransientResult:
        """One trial's waveforms as an ordinary :class:`TransientResult`."""
        steps = self.time_s.size - 1
        return TransientResult(
            circuit=self.circuit,
            time_s=self.time_s.copy(),
            solutions=self.solutions[trial].copy(),
            converged=bool(self.converged[trial]),
            convergence_info=TransientConvergenceInfo(
                strategy=self.strategies[trial],
                newton_iterations=int(self.newton_iterations[trial]),
                max_newton_residual_v=float(self.max_residuals[trial]),
                accepted_steps=steps,
                rejected_steps=0,
                min_step_s=float(self.time_s[1] - self.time_s[0]) if steps else 0.0,
                max_step_s=float(self.time_s[1] - self.time_s[0]) if steps else 0.0,
            ),
        )
