"""Write the benchmark ledger, ``BENCH_perfbench.json``, from perfbench runs.

Runs the repository's benchmark command, unchanged, for its four workloads
and records what it printed::

    python3 bench_ledger.py                      # this checkout -> ./BENCH_perfbench.json
    python3 bench_ledger.py --tree OTHER         # OTHER and this checkout, interleaved
    python3 benchmarks/compare_bench.py NEW_DIR OLD_DIR   # diff two ledgers

The command is fixed, so any two ledgers compare: for each workload it
makes ``REPEATS`` end-to-end runs of
``python3 perfbench/run.py --workload W --seed 0 --seconds 10 --trace 0``
(the workloads interleaved, so host drift spreads over all of them) and
records the median and quartiles of their ``op_p50_ms``, and the medians of
``setup_s``, ``goodput_per_s`` and ``peak_rss_mb``.  One ``--trace 1`` run
per workload then gives the Newton and solver counts.  ``reference_ms`` is
the median time of perfbench's host-speed reference loop, timed before
every run; perfbench scales its times to that loop, so the scaled figures
of two ledgers compare across hosts and load, and the field says how fast
the host was.

``--tree OTHER`` measures another checkout (an export of the parent
commit, say) and this one in the same invocation: each run of one tree is
paired with the same run of the other, and which tree goes first
alternates from workload to workload and repeat to repeat, so drift of the
host's speed lands on both ledgers alike instead of in their difference.
It writes both: OTHER's to ``OTHER/BENCH_perfbench.json``, this
checkout's to ``--output``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig11_transient", "xor3_mc128", "lattice400_dc", "service_mix")
#: The fixed perfbench command: untraced runs per workload, and its options.
REPEATS = 5
SEED = 0
SECONDS = 10
COMMAND = f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0|1"
#: Traced per-layer figures kept in the ledger: the counts pinned in CI.
TRACED_COUNTS = (
    "engine.newton_iterations",
    "engine.assemble_calls",
    "solvers.solve_calls",
    "solvers.factorizations",
    "solvers.factorization_reuses",
    "montecarlo.lockstep_frac",
)
#: Layout version of the ledger (see ``benchmarks/compare_bench.py``).
SCHEMA_VERSION = 1


def perfbench(tree: str, workload: str, trace: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run in ``tree``; returns its JSON result line."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(command)} failed in {tree} ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def reference_loop(tree: str):
    """perfbench's host-speed reference loop, loaded from ``tree``."""
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_ms


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: List[Dict[str, Any]], traced: Dict[str, Any]) -> Dict[str, Any]:
    op = [run["metrics"]["op_p50_ms"] for run in runs]
    q1, median, q3 = quartiles(op)
    entry: Dict[str, Any] = {
        "op_p50_ms": median,
        "op_p50_ms_q1": q1,
        "op_p50_ms_q3": q3,
        "op_p50_ms_iqr": q3 - q1,
    }
    for name in ("setup_s", "goodput_per_s", "peak_rss_mb"):
        entry[name] = statistics.median(run["metrics"][name] for run in runs)
    entry["runs"] = len(runs)
    entry["failed"] = sum(run["failed"] for run in runs) + traced["failed"]
    entry["correct"] = all(run["correct"] for run in runs) and traced["correct"]
    # Dots become underscores, so a count's name ends like the count it is.
    entry["traced"] = {
        name.replace(".", "_"): traced["metrics"][name]
        for name in TRACED_COUNTS
        if name in traced["metrics"]
    }
    return entry


def measure(trees: List[str]) -> Dict[str, Dict[str, Any]]:
    """The ledger of each tree, the trees' runs interleaved."""
    reference = {tree: reference_loop(tree) for tree in trees}
    references: Dict[str, List[float]] = {tree: [] for tree in trees}
    runs = {tree: {name: [] for name in WORKLOADS} for tree in trees}
    traced: Dict[str, Dict[str, Any]] = {tree: {} for tree in trees}
    # The traced round is one more repeat, interleaved like the others.
    for repeat in range(REPEATS + 1):
        for index, workload in enumerate(WORKLOADS):
            order = trees if (repeat + index) % 2 == 0 else trees[::-1]
            for tree in order:
                references[tree].append(reference[tree]())
                if repeat == REPEATS:
                    traced[tree][workload] = perfbench(tree, workload, trace=1)
                    continue
                run = perfbench(tree, workload, trace=0)
                runs[tree][workload].append(run)
                print(f"[{repeat + 1}/{REPEATS}] {os.path.basename(tree)} {workload}: "
                      f"op_p50_ms {run['metrics']['op_p50_ms']:.2f}", file=sys.stderr)
    host = {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    return {
        tree: {
            "schema_version": SCHEMA_VERSION,
            "command": COMMAND,
            "host": host,
            "workloads": {
                workload: summarize(runs[tree][workload], traced[tree][workload])
                for workload in WORKLOADS
            },
            "reference_ms": statistics.median(references[tree]),
        }
        for tree in trees
    }


def write(ledger: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree", help="another checkout to measure with this one, interleaved"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(ROOT, "BENCH_perfbench.json"),
        help="this checkout's ledger (default: ./BENCH_perfbench.json)",
    )
    options = parser.parse_args(argv)
    outputs = {ROOT: os.path.abspath(options.output)}
    if options.tree is not None:
        other = os.path.abspath(options.tree)
        outputs = {other: os.path.join(other, "BENCH_perfbench.json"), **outputs}
        if len(set(outputs)) < 2 or len(set(outputs.values())) < 2:
            parser.error("--tree must be another checkout, with a ledger path of its own")
    for tree, ledger in measure(list(outputs)).items():
        write(ledger, outputs[tree])
    return 0


if __name__ == "__main__":
    sys.exit(main())
