"""Benchmark-trend diff: compare the current BENCH_*.json against the last run.

The CI benchmarks job writes ``BENCH_montecarlo.json`` / ``BENCH_solvers.json``
/ ``BENCH_transient.json`` / ... per run (the perf-trajectory artifact).  This
script diffs the current directory of artifacts against the previous run's
and prints per-metric deltas so a perf regression is visible in the job log
without blocking it:

    python benchmarks/compare_bench.py CURRENT_DIR PREVIOUS_DIR

The committed benchmark ledger, ``BENCH_perfbench.json`` at the repository
root (written by ``bench_ledger.py``), diffs the same way: put it and the
previous commit's copy (``git show HEAD~1:BENCH_perfbench.json``) in two
directories.

Numeric leaf metrics are compared by relative change; moves beyond the
warning threshold (20 % by default, ``--threshold``) in the *worsening*
direction are flagged.  Metric direction is inferred from the name:
times/counts/sizes (``*_us``, ``*_ms``, ``*_s``, ``*_steps``, ``*_err``,
``*_rss_mb``) are lower-is-better, rates (``speedup``, ``*_per_second``,
``*_per_s``, ``*_ratio``, ``*_reduction``) higher-is-better; the host-speed
``reference_ms`` and anything else is reported as informational only.  Two
artifacts whose recorded ``command`` or ``runs`` counts differ are flagged
too: their medians do not compare.  The exit code is always 0 — this is a
trend report, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, Tuple

#: Name suffixes implying "smaller is better" / "larger is better".
LOWER_IS_BETTER = (
    "_us",
    "_ms",
    "_s",
    "_steps",
    "_err",
    "_iterations",
    "_factorizations",
    "_peak_mb",
    "_rss_mb",
    # Service-latency classes (BENCH_service.json).  Already covered by the
    # bare "_ms" suffix, but named explicitly so the latency/percentile
    # families keep their direction if they ever move to other units.
    "_latency_ms",
    "_p95_ms",
    # Fault-tolerance wrapper cost (BENCH_resilience.json): percentage
    # overhead of a resilient warm hit over the raw backend.
    "overhead_pct",
)
HIGHER_IS_BETTER = ("speedup", "_per_second", "_per_s", "_ratio", "_reduction", "_fraction")


def iter_metrics(payload, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Flatten a BENCH payload to dotted-path numeric leaves.

    ``schema_version`` is format metadata, not a measurement, and is
    excluded (it is compared separately in :func:`main`).
    """
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            if not prefix and key == "schema_version":
                continue
            yield from iter_metrics(value, f"{prefix}{key}.")
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from iter_metrics(value, f"{prefix}{index}.")
    elif isinstance(payload, bool):
        return
    elif isinstance(payload, (int, float)):
        yield prefix.rstrip("."), float(payload)


def direction(metric: str) -> int:
    """-1 lower-is-better, +1 higher-is-better, 0 informational."""
    leaf = metric.rsplit(".", 1)[-1]
    # Descriptive measurements, not costs: the controller's step-size range,
    # reference values and the ledger's host-speed loop move freely without
    # being better or worse.
    if leaf.endswith(("_step_s", "_ref_s")) or leaf == "reference_ms":
        return 0
    if leaf.endswith(HIGHER_IS_BETTER) or leaf in HIGHER_IS_BETTER:
        return 1
    if leaf.endswith(LOWER_IS_BETTER):
        return -1
    return 0


def load_directory(directory: str) -> Dict[str, Tuple[Dict[str, float], object, object]]:
    """All BENCH_*.json files in a directory: name -> (metrics, schema_version, command).

    ``schema_version`` is ``None`` for artifacts written before the stamp
    was introduced; ``command`` (the ledger's producing command) is
    ``None`` for artifacts that do not record one.
    """
    found: Dict[str, Tuple[Dict[str, float], object, object]] = {}
    if not os.path.isdir(directory):
        return found
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"  ! could not read {name}: {error}")
            continue
        stamps = payload if isinstance(payload, dict) else {}
        found[name] = (
            dict(iter_metrics(payload)), stamps.get("schema_version"), stamps.get("command")
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="directory with this run's BENCH_*.json")
    parser.add_argument("previous", help="directory with the previous run's artifacts")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative worsening that triggers a warning (default 0.20)",
    )
    args = parser.parse_args(argv)

    current = load_directory(args.current)
    previous = load_directory(args.previous)
    if not current:
        print(f"no BENCH_*.json artifacts in {args.current!r}; nothing to compare")
        return 0
    if not previous:
        # First run on a fresh fork (or the artifact download failed / the
        # old artifact expired): there is nothing to diff against, but this
        # run's numbers still seed the next diff — say so explicitly and
        # list what was recorded instead of skipping silently.
        print(
            f"no baseline — recording only (no previous artifacts in "
            f"{args.previous!r}; this run's {len(current)} artifact(s) seed "
            "the next diff):"
        )
        for filename, (metrics, version, _) in current.items():
            stamp = f", schema_version={version!r}" if version is not None else ""
            print(f"  {filename}: {len(metrics)} metric(s){stamp}")
        return 0

    warnings = 0
    mismatches = 0  # ledgers from different commands or run counts
    added_metrics = 0
    removed_metrics = 0
    for filename, (metrics, version, command) in current.items():
        entry = previous.get(filename)
        header = f"== {filename}"
        if entry is None:
            # Never skip one-sided files silently: a new benchmark's
            # metrics are all "added" and listed as such.
            print(f"{header} (new benchmark — no previous run)")
            for metric, value in metrics.items():
                print(f"   {metric}: {value:g} (added)")
                added_metrics += 1
            continue
        baseline, previous_version, previous_command = entry
        print(header)
        if version != previous_version:
            print(
                f"   ! schema_version changed: {previous_version!r} -> {version!r} "
                "(metric paths may not be comparable across the format change)"
            )
        if command != previous_command:
            print(
                f"   ! command changed: {previous_command!r} -> {command!r} "
                "(the two runs measured different things)  <-- WARNING"
            )
            mismatches += 1
        for metric, value in metrics.items():
            old = baseline.get(metric)
            if old is None:
                print(f"   {metric}: {value:g} (added)")
                added_metrics += 1
                continue
            if metric.rsplit(".", 1)[-1] == "runs" and value != old:
                # A ledger's medians over a different number of runs.
                print(f"   ! {metric} changed: {old:g} -> {value:g}  <-- WARNING")
                mismatches += 1
                continue
            if old == 0.0:
                delta_text = "prev 0"
                worsened = False
            else:
                delta = (value - old) / abs(old)
                sign = direction(metric)
                worsened = sign != 0 and sign * delta < -args.threshold
                delta_text = f"{delta:+.1%}"
            flag = "  <-- WARNING: regression" if worsened else ""
            if worsened or abs(value - old) > 1e-12 * max(abs(value), abs(old), 1.0):
                print(f"   {metric}: {old:g} -> {value:g} ({delta_text}){flag}")
            if worsened:
                warnings += 1
        removed = sorted(set(baseline) - set(metrics))
        for metric in removed:
            print(f"   {metric}: removed (was {baseline[metric]:g})")
            removed_metrics += 1

    # Benchmarks present only in the previous run would otherwise vanish
    # without a trace (the loop above iterates current files only).
    for filename in sorted(set(previous) - set(current)):
        baseline, _, _ = previous[filename]
        print(f"== {filename} (removed — present in the previous run only)")
        for metric, value in sorted(baseline.items()):
            print(f"   {metric}: removed (was {value:g})")
            removed_metrics += 1

    if added_metrics or removed_metrics:
        print(
            f"\nschema drift: {added_metrics} metric(s) added, "
            f"{removed_metrics} removed since the previous run"
        )
    if mismatches:
        print(
            f"\n{mismatches} WARNING(s): the two sides come from different commands "
            "or run counts, so their deltas do not compare (non-blocking)"
        )
    if warnings:
        print(
            f"\n{warnings} metric(s) worsened by more than "
            f"{args.threshold:.0%} — see warnings above (non-blocking)"
        )
    else:
        print("\nno regressions beyond the warning threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
