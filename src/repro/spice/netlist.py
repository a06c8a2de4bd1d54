"""Circuit container and the modified-nodal-analysis (MNA) assembler.

A :class:`Circuit` owns named nodes and elements.  Node ``"0"`` (aliases
``"gnd"``, ``"GND"``) is ground and is not part of the unknown vector.  The
unknown vector of the MNA system is ``[node voltages..., branch currents...]``
where branches are added by elements that need a current unknown (voltage
sources).

Elements implement a single method::

    stamp(system, state)

which adds their linearized contribution at the present Newton iterate to the
:class:`MNASystem`.  ``state`` carries the previous iterate, the analysis
time and the transient integration context, so the same element code serves
DC and transient analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Canonical name of the ground node.
GROUND = "0"

_GROUND_ALIASES = {"0", "gnd", "GND", "ground"}


@dataclass
class AnalysisState:
    """Context handed to every element stamp call.

    Attributes
    ----------
    solution:
        Present Newton iterate: node voltages then branch currents.
    time_s:
        Simulation time (0 for DC analyses).
    timestep_s:
        Transient timestep; ``None`` during DC analyses (capacitors then
        stamp nothing but a tiny conductance to ground).
    previous_solution:
        Solution of the previous accepted timestep (transient only).
    integration:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    gmin:
        Minimum conductance added from every node to ground by the analyses
        for convergence robustness.
    """

    solution: np.ndarray
    time_s: float = 0.0
    timestep_s: Optional[float] = None
    previous_solution: Optional[np.ndarray] = None
    integration: str = "be"
    gmin: float = 1e-12

    def voltage(self, node_index: int) -> float:
        """Voltage of a node index (-1 is ground and always 0 V)."""
        if node_index < 0:
            return 0.0
        return float(self.solution[node_index])

    def previous_voltage(self, node_index: int) -> float:
        if node_index < 0 or self.previous_solution is None:
            return 0.0
        return float(self.previous_solution[node_index])


class MNASystem:
    """Dense MNA matrix/right-hand-side under assembly for one Newton step.

    The buffers of :meth:`Circuit.assemble`, the per-element stamp oracle.
    """

    def __init__(self, num_nodes: int, num_branches: int):
        size = num_nodes + num_branches
        self._num_nodes = num_nodes
        self.matrix = np.zeros((size, size))
        self.rhs = np.zeros(size)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def add_conductance(self, node_a: int, node_b: int, conductance: float) -> None:
        """Stamp a conductance between two nodes (-1 for ground)."""
        if node_a >= 0:
            self.matrix[node_a, node_a] += conductance
        if node_b >= 0:
            self.matrix[node_b, node_b] += conductance
        if node_a >= 0 and node_b >= 0:
            self.matrix[node_a, node_b] -= conductance
            self.matrix[node_b, node_a] -= conductance

    def add_current(self, node: int, current: float) -> None:
        """Stamp a current flowing *into* a node [A]."""
        if node >= 0:
            self.rhs[node] += current

    def add_transconductance(
        self, out_plus: int, out_minus: int, ctrl_plus: int, ctrl_minus: int, gm: float
    ) -> None:
        """Stamp a VCCS: current ``gm * (v_ctrl_plus - v_ctrl_minus)`` from
        ``out_plus`` to ``out_minus``."""
        for out_node, out_sign in ((out_plus, 1.0), (out_minus, -1.0)):
            if out_node < 0:
                continue
            for ctrl_node, ctrl_sign in ((ctrl_plus, 1.0), (ctrl_minus, -1.0)):
                if ctrl_node < 0:
                    continue
                self.matrix[out_node, ctrl_node] += out_sign * ctrl_sign * gm

    def add_voltage_branch(
        self, branch: int, node_plus: int, node_minus: int, voltage: float
    ) -> None:
        """Stamp an ideal voltage source occupying branch index ``branch``."""
        row = self._num_nodes + branch
        if node_plus >= 0:
            self.matrix[row, node_plus] += 1.0
            self.matrix[node_plus, row] += 1.0
        if node_minus >= 0:
            self.matrix[row, node_minus] -= 1.0
            self.matrix[node_minus, row] -= 1.0
        self.rhs[row] += voltage

    def branch_index(self, branch: int) -> int:
        """Position of a branch current in the unknown vector."""
        return self._num_nodes + branch


class Circuit:
    """A netlist: named nodes plus elements.

    Elements are any objects exposing ``name`` and ``stamp(system, state)``;
    the ones shipped in :mod:`repro.spice.elements` cover the paper's needs.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._node_names: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._elements: List[object] = []
        self._element_names: Dict[str, object] = {}
        self._num_branches = 0
        self._revision = 0
        self._analysis_engine = None

    # ------------------------------------------------------------------ #
    # nodes
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> int:
        """Index of a named node, creating it on first use (-1 for ground)."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"node names must be non-empty strings, got {name!r}")
        if name in _GROUND_ALIASES:
            return -1
        if name not in self._node_index:
            self._node_index[name] = len(self._node_names)
            self._node_names.append(name)
            self._revision += 1
        return self._node_index[name]

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All non-ground node names in creation order."""
        return tuple(self._node_names)

    @property
    def num_nodes(self) -> int:
        return len(self._node_names)

    @property
    def num_branches(self) -> int:
        return self._num_branches

    @property
    def system_size(self) -> int:
        """Size of the MNA unknown vector."""
        return self.num_nodes + self.num_branches

    def node_index(self, name: str) -> int:
        """Index of an existing node; raises ``KeyError`` for unknown names."""
        if name in _GROUND_ALIASES:
            return -1
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in _GROUND_ALIASES or name in self._node_index

    def allocate_branch(self) -> int:
        """Reserve a branch-current unknown (used by voltage sources)."""
        index = self._num_branches
        self._num_branches += 1
        self._revision += 1
        return index

    @property
    def revision(self) -> int:
        """Monotonic counter bumped whenever the topology changes.

        Compiled analysis structures cache against this value so they can
        detect that nodes, branches or elements were added and recompile.
        """
        return self._revision

    # ------------------------------------------------------------------ #
    # elements
    # ------------------------------------------------------------------ #

    def add(self, element) -> None:
        """Register an element object (anything with ``name`` and ``stamp``)."""
        name = getattr(element, "name", None)
        if not name:
            raise ValueError(f"element {element!r} has no name")
        if name in self._element_names:
            raise ValueError(f"duplicate element name {name!r}")
        if not callable(getattr(element, "stamp", None)):
            raise TypeError(f"element {name!r} does not implement stamp()")
        self._element_names[name] = element
        self._elements.append(element)
        self._revision += 1

    @property
    def elements(self) -> Tuple[object, ...]:
        return tuple(self._elements)

    def element(self, name: str):
        """Look up an element by name."""
        try:
            return self._element_names[name]
        except KeyError:
            raise KeyError(f"unknown element {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._element_names

    def __len__(self) -> int:
        return len(self._elements)

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #

    def assemble(self, state: AnalysisState) -> MNASystem:
        """Assemble the MNA system by calling every element's ``stamp()``.

        This is the per-element reference path.  The analyses go through
        :class:`repro.spice.engine.AnalysisEngine`, which compiles the
        circuit once and assembles with vectorized scatter operations; this
        method remains as the oracle the engine is tested (and benchmarked)
        against.  It stamps any element with a ``stamp()`` method, including
        the ones the engine refuses to compile.
        """
        system = MNASystem(self.num_nodes, self.num_branches)
        for node in range(self.num_nodes):
            system.add_conductance(node, -1, state.gmin)
        for element in self._elements:
            element.stamp(system, state)
        return system

    def initial_solution(self) -> np.ndarray:
        """An all-zero initial Newton guess of the right size."""
        return np.zeros(self.system_size)

    def summary(self) -> str:
        """Short netlist summary used in reports."""
        kinds: Dict[str, int] = {}
        for element in self._elements:
            kind = type(element).__name__
            kinds[kind] = kinds.get(kind, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return f"{self.title}: {self.num_nodes} nodes, {len(self._elements)} elements ({parts})"
