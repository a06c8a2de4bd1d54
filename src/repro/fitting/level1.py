"""Level-1 (Shichman-Hodges) MOSFET equations.

These are the equations quoted in Section IV of the paper:

* cutoff       (``Vgs <= Vth``):            ``Ids = 0``
* triode       (``Vds <= Vgs - Vth``):      ``Ids = Kp*(W/L)*[(Vgs-Vth)*Vds - Vds^2/2]*(1 + lambda*Vds)``
* saturation   (``Vds >  Vgs - Vth``):      ``Ids = (Kp/2)*(W/L)*(Vgs-Vth)^2*(1 + lambda*Vds)``

``Kp = mu_n * Cox`` is the process transconductance.  The same equations are
evaluated by the circuit simulator's MOSFET element; this module is the
shared, array-friendly reference implementation used by the parameter
extraction (Fig. 10) and by the tests that check the SPICE element against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Level1Parameters:
    """Parameter set of a level-1 MOSFET.

    Attributes
    ----------
    kp_a_per_v2:
        Process transconductance ``Kp = mu_n * Cox`` [A/V^2].
    vth_v:
        Threshold voltage [V].
    lambda_per_v:
        Channel-length modulation [1/V].
    width_m / length_m:
        Channel geometry; only their ratio matters for the current.
    """

    kp_a_per_v2: float
    vth_v: float
    lambda_per_v: float
    width_m: float = 1.0e-6
    length_m: float = 1.0e-6

    def __post_init__(self) -> None:
        for field in ("kp_a_per_v2", "vth_v", "lambda_per_v", "width_m", "length_m"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value!r}")
        if self.kp_a_per_v2 <= 0.0:
            raise ValueError("Kp must be positive")
        if self.lambda_per_v < 0.0:
            raise ValueError("lambda cannot be negative")
        if self.width_m <= 0.0 or self.length_m <= 0.0:
            raise ValueError("channel dimensions must be positive")

    @property
    def aspect_ratio(self) -> float:
        """W/L."""
        return self.width_m / self.length_m

    @property
    def beta(self) -> float:
        """``Kp * W / L`` [A/V^2], the gain factor of the square law."""
        return self.kp_a_per_v2 * self.aspect_ratio

    def scaled(self, width_m: float, length_m: float) -> "Level1Parameters":
        """The same process parameters on a different channel geometry."""
        return Level1Parameters(
            kp_a_per_v2=self.kp_a_per_v2,
            vth_v=self.vth_v,
            lambda_per_v=self.lambda_per_v,
            width_m=width_m,
            length_m=length_m,
        )


def level1_current(parameters: Level1Parameters, vgs: float, vds: float) -> float:
    """Drain current of a level-1 NMOS for scalar bias values [A].

    Negative ``vds`` is handled by exploiting device symmetry (source and
    drain swap), so the function is usable for pass-transistor style circuits
    where current may flow in either direction.
    """
    if vds < 0.0:
        return -level1_current(parameters, vgs - vds, -vds)
    overdrive = vgs - parameters.vth_v
    if overdrive <= 0.0:
        return 0.0
    beta = parameters.beta
    clm = 1.0 + parameters.lambda_per_v * vds
    if vds <= overdrive:
        return beta * (overdrive * vds - 0.5 * vds * vds) * clm
    return 0.5 * beta * overdrive * overdrive * clm


def level1_current_array(
    parameters: Level1Parameters, vgs: "np.ndarray | float", vds: "np.ndarray | float"
) -> np.ndarray:
    """Vectorized drain current for arrays of ``vgs`` / ``vds`` (non-negative ``vds``).

    Used by the curve-fitting objective, which evaluates whole sweeps at once.
    """
    vgs_arr, vds_arr = np.broadcast_arrays(np.asarray(vgs, dtype=float), np.asarray(vds, dtype=float))
    if np.any(vds_arr < 0.0):
        raise ValueError("level1_current_array expects non-negative vds; use level1_current for bidirectional use")
    overdrive = vgs_arr - parameters.vth_v
    beta = parameters.beta
    clm = 1.0 + parameters.lambda_per_v * vds_arr

    triode = beta * (overdrive * vds_arr - 0.5 * vds_arr**2) * clm
    saturation = 0.5 * beta * overdrive**2 * clm
    current = np.where(vds_arr <= overdrive, triode, saturation)
    current = np.where(overdrive <= 0.0, 0.0, current)
    return current


def saturation_voltage(parameters: Level1Parameters, vgs: float) -> float:
    """``Vds,sat = Vgs - Vth`` (0 when the device is off)."""
    return max(vgs - parameters.vth_v, 0.0)


def on_resistance(parameters: Level1Parameters, vgs: float) -> float:
    """Small-signal triode on-resistance ``1 / (beta * (Vgs - Vth))`` [ohm]."""
    overdrive = vgs - parameters.vth_v
    if overdrive <= 0.0:
        return float("inf")
    return 1.0 / (parameters.beta * overdrive)
