"""Benchmark-session fixtures.

The benchmarks use pytest-benchmark to time the ablation studies and the
engine, solver, Monte-Carlo, store and service layers, printing paper-style
reports (``pytest benchmarks/<file> -q -s``).
"""

from __future__ import annotations

import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(_ROOT, "src"), os.path.dirname(os.path.abspath(__file__))):
    if path not in sys.path:
        sys.path.append(path)


@pytest.fixture(scope="session")
def switch_model():
    """The extracted (square/HfO2) switch model shared by the circuit benches."""
    from repro.circuits.sizing import default_switch_model

    return default_switch_model()
