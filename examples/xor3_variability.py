"""A 500-trial XOR3 variability study, end to end.

The paper's Fig. 11 transient is a single-corner simulation.  This example
reruns its circuit 500 times with per-transistor threshold spread (30 mV
sigma) and beta spread (5 % sigma) as one declarative
``MonteCarlo(base=Transient(...))`` spec: all trials march their
transients in lockstep through the batched engine (one stacked LAPACK
call per Newton round, waveforms evaluated once per step) and print the
resulting delay/level distributions — then the tails are cross-checked
against the deterministic FF/SS/FS/SF process corners, expressed as a
declarative :class:`repro.api.Corners` spec over the same bench factory
and dispatched through the shared session.

The study is seeded: rerunning it reproduces the same distributions bit
for bit (and the lockstep-batched records are bit-identical to the
historical per-trial path on the same fixed grid), while an identical
re-run within the process replays from the session's content-hash cache
with zero Newton iterations.

Run with ``PYTHONPATH=src python examples/xor3_variability.py``; set
``EXAMPLES_SMOKE=1`` for the CI-sized variant (fewer trials).
"""

import os

from repro.analysis.reporting import Table, format_engineering
from repro.analysis.waveform_metrics import edge_times, steady_state_levels
from repro.api import Corners, Transient, default_session
from repro.experiments.variability_xor3 import (
    run_variability_xor3,
    variability_circuit_spec,
)

SMOKE = os.environ.get("EXAMPLES_SMOKE", "").lower() not in ("", "0", "false", "no")


def main() -> None:
    trials = 60 if SMOKE else 500
    # The fixed-step study runs as one lockstep-batched
    # MonteCarlo(base=Transient(...)) spec — the fastest path on any core
    # count; the records are bit-identical to the serial per-trial loop.
    result = run_variability_xor3(trials=trials, seed=2019)
    print(result.report())

    session = default_session()
    print(
        f"\nlockstep study: {session.last_stats.computed} computed result(s), "
        f"{session.last_stats.newton_iterations} Newton iterations"
    )

    rise = result.rise_summary
    fall = result.fall_summary
    print(
        f"\nAcross {rise.count} completed trials the 5-95 % rise-time window is "
        f"{format_engineering(rise.spread(), 's')} wide "
        f"(fall: {format_engineering(fall.spread(), 's')})."
    )

    # Corner analysis as a declarative spec: the same bench factory the
    # study ran on, a Transient base analysis, all five corners — one
    # Session.run.  The corners should bracket the Monte-Carlo tails.
    # variability_circuit_spec() spells the factory params exactly like the
    # study above did, so the session reuses the already-compiled bench.
    session = default_session()
    circuit_spec = variability_circuit_spec()
    corners_result = session.run(Corners(base=Transient(circuit=circuit_spec)))
    bench = session.build_circuit(circuit_spec)
    output_index = bench.circuit.node_index(bench.output_node)

    table = Table(
        ["corner", "rise time", "fall time", "zero-state output"],
        title="Process corners (one Corners spec, one compiled circuit)",
    )
    for name, child in corners_result.children.items():
        time_s = child.arrays["time_s"]
        vout = child.arrays["solutions"][:, output_index]
        levels = steady_state_levels(time_s, vout)
        rises, falls = edge_times(time_s, vout, levels)
        table.add_row(
            [
                name,
                format_engineering(rises[0] if rises else float("nan"), "s"),
                format_engineering(falls[0] if falls else float("nan"), "s"),
                format_engineering(levels.low_v, "V"),
            ]
        )
    print("\n" + table.render())

    # An identical re-run of the corner study replays from the cache —
    # zero Newton iterations performed the second time.
    session.run(Corners(base=Transient(circuit=circuit_spec)))
    print(
        f"\ncached corner re-run: {session.last_stats.cached} result(s) served "
        f"from cache, {session.last_stats.newton_iterations} Newton iterations"
    )


if __name__ == "__main__":
    main()
