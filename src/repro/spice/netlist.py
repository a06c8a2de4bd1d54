"""Circuit container and the analysis state of the modified nodal analysis.

A :class:`Circuit` owns named nodes and elements.  Node ``"0"`` (aliases
``"gnd"``, ``"GND"``) is ground and is not part of the unknown vector.  The
unknown vector of the MNA system is ``[node voltages..., branch currents...]``
where branches are added by elements that need a current unknown (voltage
sources).

Elements only record their terminals and values; the analysis engine
(:mod:`repro.spice.engine`) compiles them and assembles the system.  An
:class:`AnalysisState` carries the present iterate, the analysis time and
the transient integration context of one assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Canonical name of the ground node.
GROUND = "0"

_GROUND_ALIASES = {"0", "gnd", "GND", "ground"}


@dataclass
class AnalysisState:
    """Context of one assembly of the linearized MNA system.

    Attributes
    ----------
    solution:
        Present Newton iterate: node voltages then branch currents.
    time_s:
        Simulation time (0 for DC analyses).
    timestep_s:
        Transient timestep; ``None`` during DC analyses (capacitors are
        then open circuits).
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


class Circuit:
    """A netlist: named nodes plus elements.

    Elements are objects with a unique ``name``; the analysis engine
    compiles the five shipped in :mod:`repro.spice.elements`, which cover
    the paper's needs, and rejects any other type.
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
        """Register an element object under its unique ``name``."""
        name = getattr(element, "name", None)
        if not name:
            raise ValueError(f"element {element!r} has no name")
        if name in self._element_names:
            raise ValueError(f"duplicate element name {name!r}")
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
