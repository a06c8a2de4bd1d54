"""Derivation of the circuit-model parameters from the device simulation.

Section IV of the paper extracts level-1 parameters from the TCAD data of the
square-shaped HfO2 device and builds the six-MOSFET switch model from them.
This module automates that flow on top of the TCAD substitute:

1. simulate the Id-Vg (Vds = 5 V) and Id-Vd (Vgs = 5 V) sweeps of the DSSS
   case with :class:`repro.tcad.simulator.DeviceSimulator`;
2. fit ``Kp``, ``Vth`` and ``lambda`` with :mod:`repro.fitting.extraction`;
3. wrap the result in a :class:`repro.spice.elements.switch4t.FourTerminalSwitchModel`.

SciPy is an optional extra.  It is needed by the sparse solver backends, by
steps 1-2 here (the TCAD field solver, the surface-potential root finding
and ``scipy.optimize.least_squares``) and so by Figs. 8-10, which
reproduce the extraction.  Every Section V circuit instead uses
:func:`default_switch_model`, built from :data:`DEFAULT_SQUARE_HFO2_FIT`,
the pinned output of this extraction, so a circuit, Monte-Carlo or service
run needs NumPy only.
``tests/test_switch4t_circuits.py::TestSizingExtraction::test_pinned_default_fit_is_the_extraction_output``
re-runs the extraction and checks it against the constant bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.devices.specs import DeviceSpec, device_spec
from repro.devices.terminals import DSSS
from repro.fitting.extraction import FitResult, fit_level1_parameters
from repro.fitting.level1 import Level1Parameters
from repro.spice.elements.switch4t import (
    CHANNEL_WIDTH_M,
    FourTerminalSwitchModel,
    TYPE_A_LENGTH_M,
)
from repro.tcad.simulator import DeviceSimulator

#: The level-1 parameters :func:`extract_square_device_parameters` returns
#: for the default (square, HfO2) device, written as exact reprs so the
#: circuits reuse the Section IV fit without re-running it.
DEFAULT_SQUARE_HFO2_FIT = Level1Parameters(
    kp_a_per_v2=3.951301438327634e-05,
    vth_v=0.1834160317789539,
    lambda_per_v=0.05043128562534098,
    width_m=CHANNEL_WIDTH_M,
    length_m=TYPE_A_LENGTH_M,
)


def extract_square_device_parameters(
    spec: Optional[DeviceSpec] = None,
    points: int = 26,
) -> FitResult:
    """Run the Section IV extraction on the (square, HfO2) device.

    Both paper scenarios are used: an Id-Vg sweep at ``Vds = 5 V`` and an
    Id-Vd sweep at ``Vgs = 5 V``, all in the DSSS case.  The fit assumes the
    Type A channel geometry (W = 0.7 um, L = 0.35 um), matching how the
    extracted ``Kp`` is then reused for both transistor types.
    """
    if spec is None:
        spec = device_spec("square", "HfO2")
    simulator = DeviceSimulator(spec)

    vgs_sweep = np.linspace(0.0, 5.0, points)
    vgs_values, idvg = simulator.idvg_samples(DSSS, vds=5.0, vgs_values=vgs_sweep)
    vds_sweep = np.linspace(0.0, 5.0, points)
    vds_values, idvd = simulator.idvd_samples(DSSS, vgs=5.0, vds_values=vds_sweep)

    datasets = [
        (vgs_values, np.full_like(vgs_values, 5.0), idvg),
        (np.full_like(vds_values, 5.0), vds_values, idvd),
    ]
    return fit_level1_parameters(datasets, width_m=CHANNEL_WIDTH_M, length_m=TYPE_A_LENGTH_M)


def switch_model_from_spec(
    spec: Optional[DeviceSpec] = None,
    terminal_capacitance_f: float = 1e-15,
    points: int = 26,
) -> FourTerminalSwitchModel:
    """Extract parameters from a device spec and build the switch model."""
    fit = extract_square_device_parameters(spec, points=points)
    return FourTerminalSwitchModel.from_fit(
        fit.parameters, terminal_capacitance_f=terminal_capacitance_f
    )


def default_switch_model() -> FourTerminalSwitchModel:
    """The default switch model (square device, HfO2 gate).

    This is the model every circuit experiment of Section V uses.  It is
    built from :data:`DEFAULT_SQUARE_HFO2_FIT`, the pinned output of the
    Section IV extraction, so it needs neither the device simulation nor
    SciPy (which only the sparse backends, the TCAD field solver and root
    finding, and the extraction behind Figs. 8-10 need).
    :func:`switch_model_from_spec` re-runs the extraction itself, and
    ``test_pinned_default_fit_is_the_extraction_output`` checks that the two
    agree bit for bit.
    """
    return FourTerminalSwitchModel.from_fit(DEFAULT_SQUARE_HFO2_FIT)


def switch_model_from_parameters(
    kp_a_per_v2: float,
    vth_v: float,
    lambda_per_v: float,
    terminal_capacitance_f: float = 1e-15,
) -> FourTerminalSwitchModel:
    """Build a switch model directly from process parameters (no simulation).

    Handy for tests and for exploring what-if scenarios without the device
    simulation in the loop.
    """
    return FourTerminalSwitchModel.from_process(
        kp_a_per_v2=kp_a_per_v2,
        vth_v=vth_v,
        lambda_per_v=lambda_per_v,
        terminal_capacitance_f=terminal_capacitance_f,
    )
