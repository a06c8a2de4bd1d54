"""Linear resistor element.

The element only records its terminals and resistance.  Resistor
conductances never change between Newton iterations, so the analysis engine
folds them into its cached base matrix at compile time.  The engine compiles
only this exact type: a subclass overriding the element's behavior is
rejected with ``TypeError``.
"""

from __future__ import annotations

from repro.spice.netlist import Circuit


class Resistor:
    """A two-terminal linear resistor.

    Parameters
    ----------
    circuit:
        The circuit the resistor belongs to (nodes are created on demand).
    name:
        Unique element name (conventionally ``"R..."``).
    node_a, node_b:
        Terminal node names.
    resistance_ohm:
        Resistance; must be positive (``inf`` is an open resistor).
    """

    def __init__(self, circuit: Circuit, name: str, node_a: str, node_b: str, resistance_ohm: float):
        if not resistance_ohm > 0.0:
            raise ValueError(
                f"resistor {name!r}: resistance must be positive, got {resistance_ohm!r}"
            )
        self.name = name
        self.resistance_ohm = resistance_ohm
        self._node_a = circuit.node(node_a)
        self._node_b = circuit.node(node_b)
        self._node_a_name = node_a
        self._node_b_name = node_b
        circuit.add(self)

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance_ohm

    @property
    def nodes(self) -> tuple:
        return (self._node_a_name, self._node_b_name)

    def __repr__(self) -> str:
        return f"Resistor({self.name}, {self._node_a_name}-{self._node_b_name}, {self.resistance_ohm:g} ohm)"
