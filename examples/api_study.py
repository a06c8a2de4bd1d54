"""One Session, many studies: the declarative `repro.api` layer end to end.

Every analysis in the package — DC operating point, DC sweep, transient
(fixed or adaptive), Monte-Carlo DC, process corners — runs through the
same three steps:

1. declare a spec (frozen dataclasses: circuit factory + analysis knobs);
2. hand it to a :class:`repro.api.Session` (``run`` / ``run_many``);
3. read the uniform :class:`repro.api.Result` records back.

The session compiles every distinct circuit once, caches each result under
its spec's content hash (in memory here; pass ``store="some/dir"`` for a
persistent on-disk store, or any :mod:`repro.api.stores` backend), and
fans independent specs out through the executor seam — the
:class:`repro.api.DistributedExecutor` below runs the Monte-Carlo study on
worker processes without changing a line of the spec.

Run with ``PYTHONPATH=src python examples/api_study.py``.
"""

import os

from repro.api import (
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    DistributedExecutor,
    MonteCarlo,
    ResultSet,
    Session,
    Transient,
    expand_grid,
)
from repro.spice.montecarlo import Gaussian

SMOKE = os.environ.get("EXAMPLES_SMOKE", "").lower() not in ("", "0", "false", "no")


def main() -> None:
    session = Session()

    chain = CircuitSpec(
        "repro.circuits.series_chain:build_series_chain",
        params={"num_switches": 5},
    )
    bench = CircuitSpec(
        "repro.experiments.fig11_xor3_transient:build_fig11_bench",
        params={"step_duration_s": 80e-9},
    )

    # --- one spec per analysis kind, one entry point for all of them ----
    op = session.run(DCOp(circuit=chain))
    print(f"DC op: chain current {abs(op.source_current('v_drive')) * 1e6:.2f} uA "
          f"({op.scalars['strategy']}, {op.scalars['iterations']} iterations)")

    sweep = session.run(
        DCSweep(circuit=chain, source="v_drive", values=[0.0, 0.3, 0.6, 0.9, 1.2])
    )
    print(f"DC sweep: {sweep.scalars['points']} points, converged={sweep.converged}")

    transient = session.run(Transient(circuit=bench, timestep_s=1e-9, adaptive=True))
    print(
        f"adaptive transient: {transient.scalars['accepted_steps']} accepted / "
        f"{transient.scalars['rejected_steps']} rejected steps, "
        f"settled output {transient.voltage('out')[-1]:.3f} V"
    )

    corners = session.run(Corners(base=DCOp(circuit=chain)))
    for name, child in corners.children.items():
        print(f"corner {name}: I = {abs(child.source_current('v_drive')) * 1e6:.2f} uA")

    # --- Monte Carlo through the executor seam --------------------------
    # Two independent studies (two seeds) fan out across two worker
    # processes; a single spec is better run in-process by session.run.
    mc_specs = [
        MonteCarlo(
            circuit=chain,
            perturbations={"mos_vth": Gaussian(sigma=0.03)},
            trials=16 if SMOKE else 64,
            seed=seed,
        )
        for seed in (2019, 2020)
    ]
    mc_results = session.run_many(mc_specs, executor=DistributedExecutor(workers=2))
    for spec_mc, mc in zip(mc_specs, mc_results):
        currents = abs(mc.source_current("v_drive")) * 1e6
        print(
            f"Monte Carlo (seed {spec_mc.seed}, {mc.scalars['trials']} trials, "
            f"batched, worker pool): chain current "
            f"{currents.mean():.2f} +/- {currents.std():.2f} uA"
        )

    # --- product grids and the cache ------------------------------------
    grid = expand_grid(DCOp(circuit=chain), {"circuit.num_switches": (1, 3, 5, 11)})
    study = session.run_many(grid)
    print(
        "chain-length grid:",
        ", ".join(
            f"{dict(s.circuit.params)['num_switches']}sw="
            f"{abs(r.source_current('v_drive')) * 1e6:.2f}uA"
            for s, r in zip(grid, study)
        ),
    )

    replay = session.run_many(grid)
    print(
        f"cached replay: {session.last_stats.cached} results from cache, "
        f"{session.last_stats.newton_iterations} Newton iterations performed"
    )

    # --- results are plain data: JSON round-trips bitwise ---------------
    text = study.to_json()
    restored = ResultSet.from_json(text)
    same = all(
        (a.arrays["solution"] == b.arrays["solution"]).all()
        for a, b in zip(study, restored)
    )
    print(f"JSON round-trip: {len(text)} bytes, bitwise-identical arrays: {same}")
    print("provenance:", replay[0].provenance["git"], replay[0].provenance["versions"])


if __name__ == "__main__":
    main()
