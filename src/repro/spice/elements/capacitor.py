"""Linear capacitor element with backward-Euler / trapezoidal companions.

During compiled transient analysis the engine stamps the companion
conductances into its cached base matrix (the timestep is fixed) and keeps
the trapezoidal history currents in one vector for all capacitors;
``stamp()``/``update_history()`` remain as the per-element reference path
(:meth:`~repro.spice.netlist.Circuit.assemble`).
"""

from __future__ import annotations

from repro.spice.netlist import AnalysisState, Circuit, MNASystem


class Capacitor:
    """A two-terminal linear capacitor.

    During DC analyses the capacitor is an open circuit (it stamps nothing;
    the analysis-level ``gmin`` keeps floating nodes defined).  During
    transient analysis it stamps the companion model of the selected
    integration method:

    * backward Euler:  ``g = C/dt``,  ``Ieq = g * v_prev``
    * trapezoidal:     ``g = 2C/dt``, ``Ieq = g * v_prev + i_prev``

    Parameters
    ----------
    circuit, name, node_a, node_b:
        As for the other elements.
    capacitance_f:
        Capacitance in farads; must be positive.
    initial_voltage_v:
        Optional initial condition used for the first transient step.
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
        if capacitance_f <= 0.0:
            raise ValueError(f"capacitance must be positive, got {capacitance_f}")
        self.name = name
        self.capacitance_f = capacitance_f
        self.initial_voltage_v = initial_voltage_v
        self._node_a = circuit.node(node_a)
        self._node_b = circuit.node(node_b)
        self._node_a_name = node_a
        self._node_b_name = node_b
        self._previous_current = 0.0
        circuit.add(self)

    @property
    def nodes(self) -> tuple:
        return (self._node_a_name, self._node_b_name)

    def reset(self) -> None:
        """Clear the trapezoidal history current (called before a transient)."""
        self._previous_current = 0.0

    def _previous_voltage(self, state: AnalysisState) -> float:
        if state.previous_solution is None:
            return self.initial_voltage_v
        return state.previous_voltage(self._node_a) - state.previous_voltage(self._node_b)

    def stamp(self, system: MNASystem, state: AnalysisState) -> None:
        if state.timestep_s is None:
            return  # open circuit in DC
        dt = state.timestep_s
        v_prev = self._previous_voltage(state)
        if state.integration == "trap":
            g = 2.0 * self.capacitance_f / dt
            i_eq = g * v_prev + self._previous_current
        else:
            g = self.capacitance_f / dt
            i_eq = g * v_prev
        system.add_conductance(self._node_a, self._node_b, g)
        if self._node_a >= 0:
            system.add_current(self._node_a, i_eq)
        if self._node_b >= 0:
            system.add_current(self._node_b, -i_eq)

    def update_history(self, state: AnalysisState) -> None:
        """Record the branch current after a converged transient step.

        Only needed for trapezoidal integration; harmless otherwise.
        """
        if state.timestep_s is None:
            return
        dt = state.timestep_s
        v_now = state.voltage(self._node_a) - state.voltage(self._node_b)
        v_prev = self._previous_voltage(state)
        if state.integration == "trap":
            g = 2.0 * self.capacitance_f / dt
            self._previous_current = g * (v_now - v_prev) - self._previous_current
        else:
            self._previous_current = self.capacitance_f / dt * (v_now - v_prev)

    def __repr__(self) -> str:
        return f"Capacitor({self.name}, {self._node_a_name}-{self._node_b_name}, {self.capacitance_f:g} F)"
