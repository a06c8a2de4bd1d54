"""Package metadata (kept in setup.py for offline editable installs).

The environments this repository targets often lack the PEP 660
editable-wheel path, so the project is installable with
``pip install -e . --no-use-pep517 --no-build-isolation``.

Only NumPy is required.  SciPy is published as the ``sparse`` extra —
``pip install repro[sparse]`` — and is needed by the sparse linear-solver
backends (:class:`repro.spice.solvers.SparseSolver`), the TCAD substitute's
field solver and surface-potential root finding, and the Section IV
parameter extraction behind Figs. 8-10.  Without it those fail with an
actionable message (the test-suite skips their cases).  Every circuit run
uses the default switch model, which is built from the pinned extraction
output ``repro.circuits.sizing.DEFAULT_SQUARE_HFO2_FIT`` and needs NumPy
only.  This test re-derives that constant:
``tests/test_switch4t_circuits.py::TestSizingExtraction::test_pinned_default_fit_is_the_extraction_output``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-lattice-spice",
    version="0.3.0",
    description=(
        "Reproduction of a DATE'19 switching-lattice logic paper: TCAD-style "
        "device characterization, lattice synthesis and a compiled SPICE "
        "engine with pluggable linear-solver backends"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "sparse": ["scipy"],
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
