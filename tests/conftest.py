"""Shared fixtures for the test-suite.

The shared objects (the switch models, device simulators) are
session-scoped so the many circuit tests build them once.
"""

from __future__ import annotations

import pytest

from repro.circuits.sizing import switch_model_from_parameters
from repro.core.boolean import xor
from repro.core.library import xor3_lattice_3x3, xor3_lattice_3x4
from repro.devices.specs import device_spec
from repro.tcad.simulator import DeviceSimulator


@pytest.fixture(scope="session")
def square_hfo2_spec():
    """The paper's primary device: square-shaped gate with HfO2 dielectric."""
    return device_spec("square", "HfO2")


@pytest.fixture(scope="session")
def square_simulator(square_hfo2_spec):
    """A device simulator on the square/HfO2 device."""
    return DeviceSimulator(square_hfo2_spec)


@pytest.fixture(scope="session")
def switch_model():
    """A fast, deterministic switch model with paper-scale parameters.

    Built directly from process numbers (no TCAD simulation / fit in the
    loop) so unit tests stay fast; the extraction path itself is covered by
    dedicated tests.
    """
    return switch_model_from_parameters(kp_a_per_v2=4.0e-5, vth_v=0.18, lambda_per_v=0.05)


@pytest.fixture(scope="session")
def extracted_switch_model():
    """The default switch model every Section V circuit uses.

    It is built from the pinned Section IV fit
    (``repro.circuits.sizing.DEFAULT_SQUARE_HFO2_FIT``), so it needs NumPy
    only.  SciPy is needed by the sparse backends, the TCAD field solver and
    root finding, and the extraction behind Figs. 8-10, which
    ``test_switch4t_circuits.py::TestSizingExtraction::test_pinned_default_fit_is_the_extraction_output``
    re-runs against the constant.
    """
    from repro.circuits.sizing import default_switch_model

    return default_switch_model()


@pytest.fixture(scope="session")
def xor3():
    """The XOR3 target function over (a, b, c)."""
    return xor(("a", "b", "c"))


@pytest.fixture()
def xor3_3x3():
    """A fresh 3x3 XOR3 lattice per test (tests may mutate it)."""
    return xor3_lattice_3x3()


@pytest.fixture()
def xor3_3x4():
    """A fresh 3x4 XOR3 lattice per test."""
    return xor3_lattice_3x4()


@pytest.fixture
def single_threaded():
    """Wait out the threads earlier tests left winding down.

    A stacked analysis forks its second row block only while the process
    runs one Python thread; a store call abandoned at its deadline, say,
    keeps its thread until the call returns.  A thread still alive after
    the wait fails the test by name.
    """
    import threading

    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=30.0)
    assert threading.active_count() == 1, threading.enumerate()
