"""DC sweep result type.

The per-point Newton solves and the warm-start continuation live in
:class:`repro.spice.engine.AnalysisEngine`
(:meth:`~repro.spice.engine.AnalysisEngine.dc_sweep`); this module keeps
the :class:`DCSweepResult` type it returns (with vectorized waveform
extraction) and the crossing interpolation helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.spice.dcop import OperatingPoint
from repro.spice.elements.sources import VoltageSource
from repro.spice.netlist import Circuit


@dataclass
class DCSweepResult:
    """Result of a DC sweep.

    Attributes
    ----------
    circuit:
        The swept circuit.
    values:
        The swept source values.
    points:
        The converged :class:`OperatingPoint` of every sweep value.
    """

    circuit: Circuit
    values: np.ndarray
    points: List[OperatingPoint]
    _solutions: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def solutions(self) -> np.ndarray:
        """All sweep solutions stacked, one row per point (built lazily)."""
        if self._solutions is None:
            self._solutions = np.vstack([point.solution for point in self.points])
        return self._solutions

    def voltage(self, node_name: str) -> np.ndarray:
        """Voltage of a node across the sweep [V]."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return np.zeros(len(self.points))
        return self.solutions[:, index].copy()

    def source_current(self, source: Union[VoltageSource, str]) -> np.ndarray:
        """Current through a voltage source across the sweep [A].

        The source's branch position is resolved once (and cached on the
        source during compilation), so extraction is a single column slice
        instead of a per-point name lookup.
        """
        if isinstance(source, str):
            source = self.circuit.element(source)
        if not isinstance(source, VoltageSource):
            raise TypeError("source_current expects a VoltageSource or its name")
        return self.solutions[:, source.branch_position(self.circuit)].copy()

    @property
    def all_converged(self) -> bool:
        return all(point.converged for point in self.points)

    def find_value_for_voltage(self, node_name: str, target_v: float) -> float:
        """Swept value at which a node voltage crosses ``target_v`` (interpolated)."""
        voltages = self.voltage(node_name)
        return interpolate_crossing(self.values, voltages, target_v)

    def find_value_for_current(self, source_name: str, target_a: float) -> float:
        """Swept value at which a source current magnitude crosses ``target_a``."""
        currents = np.abs(self.source_current(source_name))
        return interpolate_crossing(self.values, currents, target_a)


def interpolate_crossing(xs: np.ndarray, ys: np.ndarray, target: float) -> float:
    """First x at which y crosses target, by linear interpolation (nan if never).

    A sign-change scan over ``ys - target`` replaces the Python loop; a first
    point already sitting exactly on the target is reported as a crossing at
    ``xs[0]`` (the loop-based version skipped it when the curve stayed flat).
    Public so other layers (e.g. the series-chain drive study) can reuse it
    on curves they compute themselves.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        return float("nan")
    signs = np.sign(ys - target)
    if signs[0] == 0.0:
        return float(xs[0])
    crossing = (signs[:-1] * signs[1:] <= 0.0) & (ys[:-1] != ys[1:])
    indices = np.flatnonzero(crossing)
    if indices.size == 0:
        return float("nan")
    i = int(indices[0])
    fraction = (target - ys[i]) / (ys[i + 1] - ys[i])
    return float(xs[i] + fraction * (xs[i + 1] - xs[i]))
