"""Linear capacitor element with backward-Euler / trapezoidal companions.

The element only records its terminals, capacitance and initial voltage.
During transient analysis the engine stamps the companion conductances into
its cached base matrix (the timestep is fixed) and carries the trapezoidal
history currents of all capacitors in one vector through the march, so no
per-element state outlives a run.
"""

from __future__ import annotations

import math

from repro.spice.netlist import Circuit


class Capacitor:
    """A two-terminal linear capacitor.

    During DC analyses the capacitor is an open circuit (the engine stamps
    nothing for it; the analysis-level ``gmin`` keeps floating nodes
    defined).  During transient analysis the engine stamps the companion
    model of the selected integration method:

    * backward Euler:  ``g = C/dt``,  ``Ieq = g * v_prev``
    * trapezoidal:     ``g = 2C/dt``, ``Ieq = g * v_prev + i_prev``

    Parameters
    ----------
    circuit, name, node_a, node_b:
        As for the other elements.
    capacitance_f:
        Capacitance in farads; must be positive and finite.
    initial_voltage_v:
        Optional initial condition used for the first transient step; must
        be finite.
    """

    def __init__(
        self,
        circuit: Circuit,
        name: str,
        node_a: str,
        node_b: str,
        capacitance_f: float,
        initial_voltage_v: float = 0.0,
    ):
        if not 0.0 < capacitance_f < math.inf:
            raise ValueError(
                f"capacitor {name!r}: capacitance must be positive and finite, "
                f"got {capacitance_f!r}"
            )
        if not math.isfinite(initial_voltage_v):
            raise ValueError(
                f"capacitor {name!r}: initial voltage must be finite, "
                f"got {initial_voltage_v!r}"
            )
        self.name = name
        self.capacitance_f = capacitance_f
        self.initial_voltage_v = initial_voltage_v
        self._node_a = circuit.node(node_a)
        self._node_b = circuit.node(node_b)
        self._node_a_name = node_a
        self._node_b_name = node_b
        circuit.add(self)

    @property
    def nodes(self) -> tuple:
        return (self._node_a_name, self._node_b_name)

    def __repr__(self) -> str:
        return f"Capacitor({self.name}, {self._node_a_name}-{self._node_b_name}, {self.capacitance_f:g} F)"
