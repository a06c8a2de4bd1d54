"""The lattice simulator's benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload fig11_transient --seed 0 --seconds 10 --trace 0

Workloads: ``fig11_transient``, ``xor3_mc128``, ``lattice400_dc`` and
``service_mix`` (see ``perfbench/README.md`` for why each exists).

Every workload runs in child processes started from a scratch directory
under ``.perfbench_runs/`` with ``PYTHONPATH`` at this checkout's ``src``
and the variables that steer ``solver="auto"`` (``REPRO_SOLVER_CROSSOVER``,
``REPRO_BENCH_SOLVERS``, ``BENCH_JSON_DIR``) removed, so a
``BENCH_solvers.json`` in the caller's directory or environment cannot
change the backend a workload measures.  Each child records the backend
``"auto"`` actually selected, and a mismatch makes the run incorrect.

``--trace 0`` (end to end, never traced): ``SETUPS - 1`` set-up-only
children, then one child that sets up, measures for ``--seconds`` and
checks its outputs.  Printed metrics: ``setup_s`` (median of the
``SETUPS`` set-ups), ``op_p50_ms``, ``goodput_per_s`` and
``peak_rss_mb``.  Times are scaled to the host-speed reference loop
timed next to them (``workloads.reference_ms``); the report prints the
unscaled wall figures too.

``--trace 1``: one untraced and one traced child, each measuring for
``--seconds``.  Printed metrics: the per-layer numbers of the traced child
plus ``trace.overhead_frac``, the traced median operation latency over the
untraced one, minus one.  Both children must produce the same output
digest.  The traced child's spans are written to
``.perfbench_runs/traces/<workload>.spans.jsonl``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report with every issue-named figure and check.  The
exit code is 0 when a result was printed and non-zero, with no result,
when the workload could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("fig11_transient", "xor3_mc128", "lattice400_dc", "service_mix")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Wall budget for all children of one run (the run must end within 180 s).
BUDGET_S = 165.0
#: Environment variables that would steer ``solver="auto"``'s crossover.
SOLVER_STEERING = ("REPRO_SOLVER_CROSSOVER", "REPRO_BENCH_SOLVERS", "BENCH_JSON_DIR")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "goodput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class RunFailed(RuntimeError):
    """A child could not set up or measure; no result is printed."""


def child_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SOLVER_STEERING}
    env["PYTHONPATH"] = SOURCE
    return env


def run_child(workdir: str, deadline: float, args: List[str]) -> Dict[str, Any]:
    """Run ``workloads.py`` once; returns its JSON record."""
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        *args,
        "--spawned-at",
        repr(time.time()),
    ]
    process = subprocess.Popen(
        command,
        cwd=workdir,
        env=child_environment(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"{' '.join(args)} did not finish within the time budget")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # any leftover server
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(args)} exited with {process.returncode}:\n{stderr[-3000:]}")
    return json.loads(lines[-1])


def end_to_end(options, workdir: str, deadline: float) -> Dict[str, Any]:
    base = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", str(options.seconds)]
    setups = [run_child(workdir, deadline, base + ["--setup-only"])["setup_s"]
              for _ in range(SETUPS - 1)]
    record = run_child(workdir, deadline, base)
    setups.append(record["setup_s"])
    record["setups_s"] = setups
    record["metrics"] = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(record["scaled_ms"]),
        "goodput_per_s": record["goodput_per_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    record["units"] = END_TO_END_UNITS
    record["correct"] = bool(record["checks"].get("ok") and record["backend_ok"])
    return record


def traced(options, workdir: str, deadline: float) -> Dict[str, Any]:
    from tracing import PER_LAYER_UNITS

    base = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", str(options.seconds)]
    plain = run_child(workdir, deadline, base)
    traces = os.path.join(RUNS, "traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, f"{options.workload}.spans.jsonl")
    record = run_child(workdir, deadline, base + ["--spans", spans])
    untraced_ms = statistics.median(plain["scaled_ms"])
    traced_ms = statistics.median(record["scaled_ms"])
    layers = dict(record["layers"])
    layers["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0
    record["metrics"] = {name: layers.get(name, 0.0) for name in PER_LAYER_UNITS}
    record["units"] = PER_LAYER_UNITS
    record["untraced_op_p50_ms"] = untraced_ms
    record["digests_match"] = plain["digest"] == record["digest"]
    record["attempted"] += plain["attempted"]
    record["failed"] += plain["failed"]
    record["correct"] = bool(
        record["checks"].get("ok")
        and plain["checks"].get("ok")
        and record["backend_ok"]
        and plain["backend_ok"]
        and record["digests_match"]
    )
    return record


def print_report(options, record: Dict[str, Any]) -> None:
    print(f"perfbench {options.workload} seed={options.seed} "
          f"seconds={options.seconds:g} trace={options.trace}")
    print(f"  correct: {record['correct']}  backend: {json.dumps(record['backends'])} "
          f"(ok: {record['backend_ok']})")
    print(f"  checks: {json.dumps(record['checks'], default=str)}")
    print(f"  counts: {json.dumps(record['counts'], default=str)}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  operations timed: {len(record['latencies_ms'])}  "
          f"error_frac: {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    print(f"  wall (unscaled): op_p50_ms {statistics.median(record['latencies_ms']):.3f}, "
          f"setup_s {record['setup_wall_s']:.3f}")
    if "setups_s" in record:
        print("  setups_s: " + ", ".join(f"{value:.3f}" for value in record["setups_s"]))
    if "digests_match" in record:
        print(f"  traced vs untraced: digests match: {record['digests_match']}, "
              f"untraced op_p50_ms {record['untraced_op_p50_ms']:.3f}")
    for name, (value, unit) in record["report"].items():
        print(f"  {name:<34} {value:14.4f} {unit}")
    for name, value in record["metrics"].items():
        print(f"  {name:<34} {value:14.4f} {record['units'][name]}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if options.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no source tree at {SOURCE}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{options.workload}-", dir=RUNS)
    try:
        record = (traced if options.trace else end_to_end)(options, workdir, deadline)
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(options, record)
    result = {
        "correct": record["correct"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": value, "unit": record["units"][name]}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
