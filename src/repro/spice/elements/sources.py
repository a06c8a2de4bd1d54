"""Independent voltage and current sources.

The analysis engine folds the structural +/-1 branch entries of voltage
sources into its cached base matrix and re-reads each source's waveform on
every assembly, so ``set_level()`` during sweeps is honoured without
recompiling; ``stamp()`` remains as the per-element reference path
(:meth:`~repro.spice.netlist.Circuit.assemble`).
"""

from __future__ import annotations

from typing import Union

from repro.spice.netlist import AnalysisState, Circuit, MNASystem
from repro.spice.waveforms import DC, Waveform


def _as_waveform(value: Union[float, int, Waveform]) -> Waveform:
    if isinstance(value, Waveform):
        return value
    return DC(float(value))


class VoltageSource:
    """An ideal independent voltage source.

    Occupies one MNA branch; the branch current (flowing from the positive
    node through the source to the negative node) is available from analysis
    results via :meth:`branch_position`.

    Parameters
    ----------
    circuit, name:
        As usual.
    node_plus, node_minus:
        Positive and negative terminals.
    value:
        A constant level (volts) or a :class:`~repro.spice.waveforms.Waveform`.
    """

    def __init__(
        self,
        circuit: Circuit,
        name: str,
        node_plus: str,
        node_minus: str,
        value: Union[float, Waveform],
    ):
        self.name = name
        self.waveform = _as_waveform(value)
        self._node_plus = circuit.node(node_plus)
        self._node_minus = circuit.node(node_minus)
        self._node_plus_name = node_plus
        self._node_minus_name = node_minus
        self._branch = circuit.allocate_branch()
        self._branch_position_cache = None
        circuit.add(self)

    @property
    def nodes(self) -> tuple:
        return (self._node_plus_name, self._node_minus_name)

    @property
    def branch(self) -> int:
        """The branch index allocated to this source."""
        return self._branch

    def value_at(self, time_s: float) -> float:
        return self.waveform.value(time_s)

    def set_level(self, level: float) -> None:
        """Replace the waveform with a DC level (used by DC sweeps)."""
        self.waveform = DC(float(level))

    def stamp(self, system: MNASystem, state: AnalysisState) -> None:
        system.add_voltage_branch(
            self._branch, self._node_plus, self._node_minus, self.value_at(state.time_s)
        )

    def branch_position(self, circuit: Circuit) -> int:
        """Index of this source's current in the solution vector.

        The position is cached against the circuit's revision so sweep and
        transient results can extract current waveforms with a plain column
        slice; adding nodes or elements invalidates the cache.
        """
        cached = self._branch_position_cache
        if cached is not None and cached[0] is circuit and cached[1] == circuit.revision:
            return cached[2]
        position = circuit.num_nodes + self._branch
        self._branch_position_cache = (circuit, circuit.revision, position)
        return position

    def __repr__(self) -> str:
        return f"VoltageSource({self.name}, {self._node_plus_name}-{self._node_minus_name})"


class CurrentSource:
    """An ideal independent current source.

    Positive current flows from ``node_plus`` through the source into
    ``node_minus`` externally — i.e. the source pushes current *into*
    ``node_minus``'s node and pulls it from ``node_plus``'s node, matching the
    SPICE convention for ``I`` elements.
    """

    def __init__(
        self,
        circuit: Circuit,
        name: str,
        node_plus: str,
        node_minus: str,
        value: Union[float, Waveform],
    ):
        self.name = name
        self.waveform = _as_waveform(value)
        self._node_plus = circuit.node(node_plus)
        self._node_minus = circuit.node(node_minus)
        self._node_plus_name = node_plus
        self._node_minus_name = node_minus
        circuit.add(self)

    @property
    def nodes(self) -> tuple:
        return (self._node_plus_name, self._node_minus_name)

    def value_at(self, time_s: float) -> float:
        return self.waveform.value(time_s)

    def set_level(self, level: float) -> None:
        """Replace the waveform with a DC level (used by DC sweeps)."""
        self.waveform = DC(float(level))

    def stamp(self, system: MNASystem, state: AnalysisState) -> None:
        current = self.value_at(state.time_s)
        if self._node_plus >= 0:
            system.add_current(self._node_plus, -current)
        if self._node_minus >= 0:
            system.add_current(self._node_minus, current)

    def __repr__(self) -> str:
        return f"CurrentSource({self.name}, {self._node_plus_name}-{self._node_minus_name})"
