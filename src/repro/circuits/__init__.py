"""Lattice-level circuits: netlist builders and test benches (Section V).

This package turns :class:`~repro.core.lattice.Lattice` objects into circuits
for the SPICE-style simulator:

* :mod:`repro.circuits.lattice_netlist` — the pull-down lattice with its
  500 kOhm pull-up resistor, supply, terminal capacitors and output load,
  exactly as in the paper's XOR3 experiment (Fig. 11);
* :mod:`repro.circuits.series_chain` — chains of four-terminal switches in
  series for the drive-capability study (Fig. 12);
* :mod:`repro.circuits.testbench` — input stimulus generation (input vector
  sequences as piecewise-linear gate waveforms);
* :mod:`repro.circuits.sizing` — derivation of the switch model parameters
  from the TCAD-substitute data (the Section IV extraction, which needs
  SciPy), and the default model built from its pinned output, so the many
  circuit benches never re-run the device simulation;
* :mod:`repro.circuits.corners` — FF/SS/FS/SF process-corner analysis as
  parameter overlays on the compiled engine (the deterministic sibling of
  the Monte-Carlo subsystem).
"""

from repro.circuits.sizing import (
    default_switch_model,
    extract_square_device_parameters,
    switch_model_from_spec,
)
from repro.circuits.lattice_netlist import (
    LatticeCircuit,
    build_lattice_circuit,
    build_scalability_bench,
    scalability_grid_for_unknowns,
)
from repro.circuits.complementary import (
    ComplementaryLatticeCircuit,
    build_complementary_lattice_circuit,
    complement_lattice,
)
from repro.circuits.series_chain import SeriesChainCircuit, build_series_chain
from repro.circuits.testbench import (
    InputSequence,
    all_input_vectors,
    gray_code_vectors,
    input_waveforms,
)
from repro.circuits.corners import (
    Corner,
    applied_corner,
    corner_overlay,
    run_corners,
    standard_corners,
)

__all__ = [
    "default_switch_model",
    "extract_square_device_parameters",
    "switch_model_from_spec",
    "LatticeCircuit",
    "build_lattice_circuit",
    "build_scalability_bench",
    "scalability_grid_for_unknowns",
    "ComplementaryLatticeCircuit",
    "build_complementary_lattice_circuit",
    "complement_lattice",
    "SeriesChainCircuit",
    "build_series_chain",
    "InputSequence",
    "all_input_vectors",
    "gray_code_vectors",
    "input_waveforms",
    "Corner",
    "applied_corner",
    "corner_overlay",
    "run_corners",
    "standard_corners",
]
