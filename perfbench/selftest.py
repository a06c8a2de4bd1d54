"""Fast self-test of the benchmark.

Run from the repository root (about two minutes on 2 CPUs)::

    python3 perfbench/selftest.py

Every workload runs at minimum size (``--seconds 1``), end to end and
traced, from a caller directory that holds a ``BENCH_solvers.json`` and
with ``REPRO_SOLVER_CROSSOVER`` and ``BENCH_JSON_DIR`` set to a crossover
that would flip the workload's ``solver="auto"`` backend if it reached the
workload.  Each run must be correct (output checks pass and the expected
backend was selected), print exactly the metric names and units
``BENCHMARK.json`` lists, produce the same output digest traced and
untraced, and, for ``service_mix``, never have more than the generator's
connection limit open.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A crossover that would flip each workload's backend: tiny systems to
#: sparse, the n=399 lattice to dense.
FLIPPING_CROSSOVER = {
    "fig11_transient": 8,
    "xor3_mc128": 8,
    "lattice400_dc": 100000,
    "service_mix": 8,
}


def declared_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[section]}


def report_field(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    return ""


def main() -> int:
    failures = []
    os.makedirs(os.path.join(ROOT, ".perfbench_runs"), exist_ok=True)
    caller = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench_runs"))
    try:
        for workload, crossover in FLIPPING_CROSSOVER.items():
            ledger = {"crossover_size": crossover, "batched_crossover_size": crossover}
            with open(os.path.join(caller, "BENCH_solvers.json"), "w", encoding="utf-8") as handle:
                json.dump(ledger, handle)
            env = dict(os.environ)
            env.update(
                REPRO_SOLVER_CROSSOVER=str(crossover),
                BENCH_JSON_DIR=caller,
                PYTHONPATH=os.path.join(ROOT, "src"),
            )
            # The hostile environment does reach an AutoSolver built here...
            probe = subprocess.run(
                [sys.executable, "-c",
                 "from repro.spice.solvers import AutoSolver; print(AutoSolver().crossover)"],
                cwd=caller, env=env, capture_output=True, text=True, check=True,
            )
            if int(probe.stdout.strip()) != crossover:
                failures.append(f"{workload}: the flipping crossover did not take effect")
            # ... but not the workload the runner starts.
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                completed = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                    cwd=caller, env=env, capture_output=True, text=True, timeout=180,
                )
                label = f"{workload} trace={trace}"
                if completed.returncode != 0:
                    failures.append(f"{label}: exit {completed.returncode}: {completed.stderr[-500:]}")
                    continue
                result = json.loads(completed.stdout.strip().splitlines()[-1])
                printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
                checks = json.loads(report_field(completed.stdout, "checks:") or "{}")
                problems = []
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result["correct"]:
                    problems.append("not correct")
                if printed != declared_units(section):
                    problems.append(f"metrics {printed} != BENCHMARK.json {section}")
                if trace and "digests match: True" not in completed.stdout:
                    problems.append("traced and untraced digests differ")
                if workload == "service_mix" and not (
                    checks.get("client_peak_connections", 99) <= checks.get("connection_limit", 0)
                ):
                    problems.append(f"connection limit exceeded: {checks}")
                print(f"{label}: {'ok' if not problems else '; '.join(problems)}", flush=True)
                failures += [f"{label}: {problem}" for problem in problems]
    finally:
        shutil.rmtree(caller, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
