"""Jacobian-consistency oracle of the compiled MNA assembly.

Newton solves ``F(x) = A(x) x - b(x) = 0`` with ``A(x)`` as its Jacobian.
A central finite difference of ``F`` at a perturbed DC iterate measures the
true Jacobian; the assembled ``A`` may differ from it only by the MOSFET
``CHANNEL_GMIN`` drain-source stamp, which sits in ``A`` while its current
cancels out of the companion's ``i_eq`` (and so out of ``F``).  Checked on
the Fig. 11 bench, a scalability lattice and a series chain, for the dense,
sparse and batched assemblies, in DC and in both transient integrations.
"""

import numpy as np
import pytest

from repro.circuits.lattice_netlist import build_scalability_bench
from repro.circuits.series_chain import build_series_chain
from repro.experiments.fig11_xor3_transient import build_fig11_bench
from repro.spice.elements.mosfet import MOSFET
from repro.spice.engine import get_engine
from repro.spice.netlist import AnalysisState

GMIN = 1e-9
TIMESTEP_S = 1e-9
#: Central-difference step [V or A].
STEP = 1e-6
#: Allowed ``|A - J_fd - channel stamp|`` [S]: a tenth of ``CHANNEL_GMIN``.
ATOL_S = 1e-9

BENCHES = {
    "fig11": lambda: build_fig11_bench().circuit,
    "lattice-rows8": lambda: build_scalability_bench(8).circuit,
    "series-chain": lambda: build_series_chain(6, node_capacitance_f=1e-15).circuit,
}


@pytest.fixture(scope="module", params=sorted(BENCHES))
def perturbed(request):
    """(compiled, perturbed DC iterate, DC solution, seeded vth stack row)."""
    engine = get_engine(BENCHES[request.param]())
    op = engine.solve_dc()
    assert op.converged
    rng = np.random.default_rng(2019)
    x = op.solution + rng.normal(scale=0.05, size=op.solution.size)
    compiled = engine.compiled
    vth = compiled.mos_vth + rng.normal(scale=0.03, size=compiled.num_mosfets)
    return compiled, x, op.solution, vth


def channel_gmin_stamp(compiled) -> np.ndarray:
    """``CHANNEL_GMIN`` between every MOSFET's drain and source."""
    size = compiled.size
    stamp = np.zeros((size + 1, size + 1))  # ghost row/column for ground
    d, s = compiled.mos_d, compiled.mos_s
    g = MOSFET.CHANNEL_GMIN
    np.add.at(stamp, (d, d), g)
    np.add.at(stamp, (s, s), g)
    np.add.at(stamp, (d, s), -g)
    np.add.at(stamp, (s, d), -g)
    return stamp[:size, :size]


def probe_points(x: np.ndarray) -> np.ndarray:
    """``x``, then ``x + h e_j`` for every j, then ``x - h e_j``."""
    shifts = STEP * np.eye(x.size)
    return np.vstack((x, x + shifts, x - shifts))


def transient_controls(mode: str, previous: np.ndarray):
    if mode == "dc":
        return dict(time_s=0.0, timestep_s=None, integration="be", previous=None)
    return dict(time_s=TIMESTEP_S, timestep_s=TIMESTEP_S, integration=mode, previous=previous)


def serial_systems(compiled, points, mode, previous, sparse):
    controls = transient_controls(mode, previous)
    history = np.zeros(compiled.num_capacitors)
    pattern = compiled.sparsity_pattern()
    for point in points:
        state = AnalysisState(
            solution=point,
            time_s=controls["time_s"],
            timestep_s=controls["timestep_s"],
            previous_solution=controls["previous"],
            integration=controls["integration"],
            gmin=GMIN,
        )
        if sparse:
            data, rhs = compiled.assemble_sparse(state, cap_history=history)
            matrix = np.zeros(compiled.size * compiled.size)
            matrix[pattern.dense_pos] = data
            yield matrix.reshape(compiled.size, compiled.size), rhs
        else:
            yield compiled.assemble(state, cap_history=history)


def batched_systems(compiled, points, mode, previous, vth):
    controls = transient_controls(mode, previous)
    count = points.shape[0]
    matrices, rhs = compiled.assemble_batched(
        points,
        {"mos_vth": np.tile(vth, (count, 1))},
        gmin=GMIN,
        time_s=controls["time_s"],
        timestep_s=controls["timestep_s"],
        integration=controls["integration"],
        previous_solutions=None if previous is None else np.tile(previous, (count, 1)),
        cap_history=np.zeros((count, compiled.num_capacitors)),
    )
    return zip(matrices, rhs)


@pytest.mark.parametrize("mode", ["dc", "be", "trap"])
@pytest.mark.parametrize("assembly", ["dense", "sparse", "batched"])
def test_jacobian_is_the_residual_derivative_plus_the_channel_gmin(
    perturbed, mode, assembly
):
    compiled, x, dc_solution, vth = perturbed
    points = probe_points(x)
    previous = None if mode == "dc" else dc_solution
    if assembly == "batched":
        systems = batched_systems(compiled, points, mode, previous, vth)
    else:
        systems = serial_systems(compiled, points, mode, previous, assembly == "sparse")
    systems = list(systems)
    jacobian = systems[0][0]
    residuals = np.array(
        [matrix @ point - rhs for point, (matrix, rhs) in zip(points, systems)]
    )
    n = x.size
    finite_difference = (residuals[1 : n + 1] - residuals[n + 1 :]).T / (2.0 * STEP)
    assert compiled.num_mosfets
    mismatch = jacobian - finite_difference - channel_gmin_stamp(compiled)
    assert np.abs(mismatch).max() <= ATOL_S
