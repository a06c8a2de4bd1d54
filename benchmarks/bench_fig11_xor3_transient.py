"""Benchmark: Fig. 11 — transient simulation of the XOR3 lattice circuit."""

import os

import numpy as np
import pytest

from _bench_utils import report, write_bench_json

from repro.analysis.waveform_metrics import edge_times, steady_state_levels
from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.testbench import InputSequence
from repro.core.library import xor3_lattice_3x3
from repro.experiments import run_fig11
from repro.spice.engine import get_engine


def test_fig11_xor3_transient(benchmark, switch_model):
    result = benchmark.pedantic(
        run_fig11,
        kwargs={"model": switch_model, "step_duration_s": 100e-9, "timestep_s": 1e-9},
        rounds=1,
        iterations=1,
    )
    # Paper: the lattice operates as the inverse of XOR3, the zero-state
    # output is ~0.22 V, rise ~11.3 ns, fall ~4.7 ns (rise slower than fall
    # because of the 500 kOhm pull-up).
    assert result.functionally_correct
    assert 0.0 < result.zero_state_output_v < 0.4
    assert 2e-9 < result.rise_time_s < 60e-9
    assert result.fall_time_s < result.rise_time_s
    report(result.report())


def _delay_metrics(result, output_index):
    vout = result.solutions[:, output_index]
    levels = steady_state_levels(result.time_s, vout)
    rises, falls = edge_times(result.time_s, vout, levels)
    return rises[0], falls[0]


def test_fig11_adaptive_step_control(benchmark, switch_model):
    """Adaptive stepping matches a fine fixed grid's delay accuracy with
    a fraction of the steps on the Fig. 11 toggle stimulus.

    The one-input toggle (``a``: 0 -> 1 -> 0, 120 ns span) is the per-trial
    workload of the variability study.  A 1 ns fixed grid undersamples the
    ~1 ns fall edge; resolving both delays to a few percent takes a 0.125 ns
    grid (960 steps).  The LTE controller reaches the same accuracy by
    spending sub-nanosecond steps only on the edges and growing to tens of
    nanoseconds across the settled stretches.
    """
    sequence = InputSequence.from_assignments(
        ("a", "b", "c"),
        [
            {"a": False, "b": False, "c": False},
            {"a": True, "b": False, "c": False},
            {"a": False, "b": False, "c": False},
        ],
        step_duration_s=40e-9,
        high_level_v=1.2,
        transition_s=1e-9,
    )
    bench = build_lattice_circuit(
        xor3_lattice_3x3(), model=switch_model, input_sequence=sequence
    )
    engine = get_engine(bench.circuit)
    output_index = bench.circuit.node_index(bench.output_node)
    stop = sequence.total_duration_s

    reference = engine.solve_transient(stop, 0.0625e-9)
    fine = engine.solve_transient(stop, 0.125e-9)
    adaptive = benchmark.pedantic(
        engine.solve_transient,
        args=(stop, 1e-9),
        kwargs={"adaptive": True, "lte_tolerance_v": 1e-3},
        rounds=3,
        iterations=1,
    )
    assert reference.converged and fine.converged and adaptive.converged

    rise_ref, fall_ref = _delay_metrics(reference, output_index)
    rise_fine, fall_fine = _delay_metrics(fine, output_index)
    rise_adap, fall_adap = _delay_metrics(adaptive, output_index)

    fine_steps = fine.convergence_info.accepted_steps
    adaptive_info = adaptive.convergence_info
    adaptive_steps = adaptive_info.total_steps
    reduction = fine_steps / adaptive_steps
    errors = {
        "fine_rise_err": abs(rise_fine - rise_ref) / rise_ref,
        "fine_fall_err": abs(fall_fine - fall_ref) / fall_ref,
        "adaptive_rise_err": abs(rise_adap - rise_ref) / rise_ref,
        "adaptive_fall_err": abs(fall_adap - fall_ref) / fall_ref,
    }

    floor = float(os.environ.get("ADAPTIVE_BENCH_MIN_REDUCTION", "2.0"))
    benchmark.extra_info["step_reduction"] = reduction
    benchmark.extra_info.update(errors)
    write_bench_json(
        "BENCH_transient.json",
        {
            "benchmark": "fig11_adaptive_step_control",
            "reference_steps": reference.convergence_info.accepted_steps,
            "fine_fixed_steps": fine_steps,
            "adaptive_accepted_steps": adaptive_info.accepted_steps,
            "adaptive_rejected_steps": adaptive_info.rejected_steps,
            "adaptive_newton_iterations": adaptive_info.newton_iterations,
            "adaptive_factorizations": adaptive_info.factorizations,
            "adaptive_min_step_s": adaptive_info.min_step_s,
            "adaptive_max_step_s": adaptive_info.max_step_s,
            "rise_time_ref_s": rise_ref,
            "fall_time_ref_s": fall_ref,
            **errors,
            "step_reduction": reduction,
            "acceptance_floor": floor,
        },
        merge=True,
    )
    report(
        "Fig. 11 toggle stimulus — adaptive vs fixed stepping (reference: "
        f"{reference.convergence_info.accepted_steps}-step 0.0625 ns grid):\n"
        f"  fine fixed (0.125 ns)  : {fine_steps:4d} steps, "
        f"rise err {errors['fine_rise_err'] * 100:5.2f} %, "
        f"fall err {errors['fine_fall_err'] * 100:5.2f} %\n"
        f"  adaptive (LTE 1 mV)    : {adaptive_info.accepted_steps:4d}+"
        f"{adaptive_info.rejected_steps} rejected steps, "
        f"rise err {errors['adaptive_rise_err'] * 100:5.2f} %, "
        f"fall err {errors['adaptive_fall_err'] * 100:5.2f} %\n"
        f"  step range             : {adaptive_info.min_step_s * 1e12:.1f} ps "
        f"to {adaptive_info.max_step_s * 1e9:.1f} ns\n"
        f"  step reduction         : {reduction:5.1f}x at matched accuracy "
        f"(acceptance floor: {floor:g}x)"
    )
    # Matched delay-metric accuracy (a small margin over the fine grid's own
    # truncation error), with a decisive step-count reduction.
    assert errors["adaptive_rise_err"] <= max(2.0 * errors["fine_rise_err"], 0.02)
    assert errors["adaptive_fall_err"] <= max(2.0 * errors["fine_fall_err"], 0.10)
    assert reduction >= floor


def test_fig11_factorization_reuse(switch_model):
    """``newton="reuse"`` cuts the transient's LU-factorization count.

    Runs the Fig. 11 toggle workload through the sparse backend twice —
    full Newton vs modified Newton with factorization reuse — and records
    both factorization counts.  The march re-assembles the Jacobian every
    step, but between switching edges it barely moves, so the frozen
    factorization keeps contracting and the refactorization count collapses.
    Deterministic: the counts come from monotonic solver counters, not
    timing.
    """
    pytest.importorskip("scipy")
    sequence = InputSequence.from_assignments(
        ("a", "b", "c"),
        [
            {"a": False, "b": False, "c": False},
            {"a": True, "b": False, "c": False},
            {"a": False, "b": False, "c": False},
        ],
        step_duration_s=40e-9,
        high_level_v=1.2,
        transition_s=1e-9,
    )
    bench = build_lattice_circuit(
        xor3_lattice_3x3(), model=switch_model, input_sequence=sequence
    )
    engine = get_engine(bench.circuit)
    stop = sequence.total_duration_s

    full = engine.solve_transient(stop, 1e-9, solver="sparse")
    reuse = engine.solve_transient(stop, 1e-9, solver="sparse", newton="reuse")
    assert full.converged and reuse.converged

    full_facts = full.convergence_info.factorizations
    reuse_facts = reuse.convergence_info.factorizations
    reuses = reuse.convergence_info.factorization_reuses
    # The point of the mode: strictly fewer refactorizations, and the
    # bypassed solves show up as counted reuses.
    assert reuse_facts < full_facts
    assert reuses > 0
    # Per-step solves still converge to the Newton voltage tolerance, so
    # the waveforms agree to tolerance-level accuracy (the switching edges
    # amplify sub-tolerance differences, hence not bitwise).
    assert float(np.max(np.abs(full.solutions - reuse.solutions))) < 1e-3

    write_bench_json(
        "BENCH_transient.json",
        {
            "reuse_full_factorizations": int(full_facts),
            "reuse_factorizations": int(reuse_facts),
            "reuse_reuses": int(reuses),
            "reuse_factorization_reduction": full_facts / max(reuse_facts, 1),
        },
        merge=True,
    )
    report(
        "Fig. 11 toggle transient, sparse backend, factorization reuse:\n"
        f"  full Newton    : {full_facts:5d} factorizations\n"
        f"  newton='reuse' : {reuse_facts:5d} factorizations, {reuses:5d} reuses\n"
        f"  reduction      : {full_facts / max(reuse_facts, 1):5.2f}x"
    )
