"""A small SPICE-style circuit simulator built around one analysis engine.

Section V of the paper runs SPICE simulations of switching-lattice circuits
built from the six-MOSFET switch model of Fig. 9.  This package provides the
simulator those experiments need, organised around a single compiled
analysis engine:

* :mod:`repro.spice.netlist` — circuits, nodes, element registration and
  the :class:`AnalysisState` of one assembly;
* :mod:`repro.spice.elements` — resistor, capacitor, independent sources,
  the level-1 MOSFET, and the four-terminal switch subcircuit of Fig. 9;
* :mod:`repro.spice.engine` — the core: :class:`~repro.spice.engine.CompiledCircuit`
  walks a circuit once and emits per-element-class index arrays, so every
  Newton iteration assembles the Jacobian/RHS with one vectorized scatter
  into the CSC data of a shared sparsity pattern;
  :class:`~repro.spice.engine.AnalysisEngine` owns the one Newton loop
  plus the gmin-stepping and source-stepping fallbacks, one DC driver and
  one fixed-step march; a serial analysis is a stack of one, whose rounds
  the Newton loop runs as a row loop on the ``(n,)`` iterate;
* :mod:`repro.spice.solvers` — the *solver seam*: pluggable
  :class:`~repro.spice.solvers.LinearSolver` backends behind every Newton
  iteration's linear solve — dense LAPACK, sparse SuperLU reusing the
  compiled sparsity pattern (large lattices; optional scipy), and a
  batched dense backend solving stacked ``(trials, n, n)`` systems in one
  call.  Every analysis accepts ``solver="auto" | "dense" | "sparse" |
  "batched" | "sparse-batched"`` (or an instance); omitted, it is
  ``"auto"``, which picks among them by system size and trial count;
* :mod:`repro.spice.waveforms` — DC, pulse and piecewise-linear stimuli
  (with breakpoint reporting for the adaptive transient controller);
* :mod:`repro.spice.montecarlo` — Monte-Carlo variability analysis on the
  compiled engine: seeded distributions perturb the compiled parameter
  arrays in place (no netlist re-walk per trial) with deterministic
  per-trial substreams, and same-pattern trials solve as one stacked batch
  through the batched backend — DC operating points
  (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_dc`) and
  lockstep fixed-step transients
  (:meth:`~repro.spice.montecarlo.MonteCarloEngine.run_batched_transient`),
  both bit-identical to the per-trial path.

The preferred way to *run* analyses is the declarative layer in
:mod:`repro.api` (specs + ``Session`` with content-hash caching and
executor fan-out).  Code that already holds a :class:`Circuit` calls the
methods of its cached :class:`~repro.spice.engine.AnalysisEngine`:

* :meth:`~repro.spice.engine.AnalysisEngine.solve_dc` — Newton-Raphson DC
  solve with automatic convergence fallbacks, returning an
  :class:`~repro.spice.dcop.OperatingPoint`;
* :meth:`~repro.spice.engine.AnalysisEngine.dc_sweep` — DC sweeps with
  warm-start continuation over one compiled structure, returning a
  :class:`~repro.spice.dcsweep.DCSweepResult`;
* :meth:`~repro.spice.engine.AnalysisEngine.sweep_many` — a *family* of
  sweeps (e.g. one per gate voltage of a drive study) batched through one
  compiled circuit with per-point continuation;
* :meth:`~repro.spice.engine.AnalysisEngine.solve_transient` —
  backward-Euler / trapezoidal transient with per-step Newton iteration,
  returning a :class:`~repro.spice.transient.TransientResult`;
  ``adaptive=True`` switches the fixed-step march to an LTE-controlled
  step-size controller (accept/reject with min/max clamps, stimulus
  breakpoints never skipped), with per-run step-acceptance statistics on
  the result's :class:`~repro.spice.transient.TransientConvergenceInfo`.

Typical use::

    from repro.spice import Circuit, Resistor, VoltageSource, get_engine

    circuit = Circuit()
    VoltageSource(circuit, "vin", "in", "0", 1.2)
    Resistor(circuit, "r1", "in", "out", 1e3)
    Resistor(circuit, "r2", "out", "0", 1e3)
    print(get_engine(circuit).solve_dc().voltage("out"))

Repeated analyses on one circuit (sweeps, parameter studies, Monte Carlo)
share the compiled structure automatically — :func:`~repro.spice.engine.get_engine`
caches the engine on the circuit and recompiles only when the topology
changes.  The engine compiles exactly the built-in :class:`Resistor`,
:class:`Capacitor`, :class:`MOSFET`, :class:`VoltageSource` and
:class:`CurrentSource` types; any other element (a subclass included) makes
the analyses raise ``TypeError``.  The device equations are written once:
the elements record terminals and values, and the engine's one assembly
kernel stamps them, the MOSFET through
:func:`~repro.spice.elements.mosfet.evaluate_level1_arrays`.
"""

from repro.spice.netlist import Circuit, GROUND, AnalysisState
from repro.spice.waveforms import DC, Pulse, PiecewiseLinear, Waveform
from repro.spice.elements.resistor import Resistor
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.sources import VoltageSource, CurrentSource
from repro.spice.elements.mosfet import MOSFET
from repro.spice.elements.switch4t import FourTerminalSwitchModel, add_four_terminal_switch
from repro.spice.engine import (
    AnalysisEngine,
    CompiledCircuit,
    PERTURBABLE_PARAMETERS,
    SparsityPattern,
    get_engine,
)
from repro.spice.solvers import (
    AutoSolver,
    BatchedDenseSolver,
    BatchedSparseSolver,
    DenseSolver,
    LinearSolver,
    SparseSolver,
    available_backends,
    get_solver,
)
from repro.spice.dcop import BatchedOperatingPoints, ConvergenceInfo, OperatingPoint
from repro.spice.dcsweep import DCSweepResult
from repro.spice.transient import (
    BatchedTransientResult,
    TransientConvergenceInfo,
    TransientResult,
)
from repro.spice.montecarlo import (
    Distribution,
    Gaussian,
    Lognormal,
    MonteCarloEngine,
    MonteCarloResult,
    Uniform,
)

__all__ = [
    "Circuit",
    "GROUND",
    "AnalysisState",
    "DC",
    "Pulse",
    "PiecewiseLinear",
    "Waveform",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "MOSFET",
    "FourTerminalSwitchModel",
    "add_four_terminal_switch",
    "AnalysisEngine",
    "CompiledCircuit",
    "PERTURBABLE_PARAMETERS",
    "get_engine",
    "SparsityPattern",
    "LinearSolver",
    "DenseSolver",
    "SparseSolver",
    "BatchedDenseSolver",
    "BatchedSparseSolver",
    "AutoSolver",
    "get_solver",
    "available_backends",
    "Distribution",
    "Gaussian",
    "Uniform",
    "Lognormal",
    "MonteCarloEngine",
    "MonteCarloResult",
    "ConvergenceInfo",
    "OperatingPoint",
    "BatchedOperatingPoints",
    "DCSweepResult",
    "TransientResult",
    "TransientConvergenceInfo",
    "BatchedTransientResult",
]
