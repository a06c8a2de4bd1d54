"""Tests of the benchmark trend-diff tooling and the BENCH schema stamp."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(_ROOT, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_bench():
    return _load("compare_bench")


@pytest.fixture(scope="module")
def bench_utils():
    return _load("_bench_utils")


def _write(directory, name, payload):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class TestSchemaStamp:
    def test_write_bench_json_stamps_schema_version(
        self, bench_utils, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        bench_utils.write_bench_json("BENCH_stamp.json", {"solve_ms": 1.0})
        with open(tmp_path / "BENCH_stamp.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == bench_utils.BENCH_SCHEMA_VERSION
        assert payload["solve_ms"] == 1.0

    def test_write_bench_json_is_a_noop_without_the_env(
        self, bench_utils, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("BENCH_JSON_DIR", raising=False)
        bench_utils.write_bench_json("BENCH_never.json", {"x": 1})
        assert not (tmp_path / "BENCH_never.json").exists()

    def test_schema_version_is_not_a_metric(self, compare_bench):
        metrics = dict(
            compare_bench.iter_metrics({"schema_version": 1, "solve_ms": 2.0})
        )
        assert "schema_version" not in metrics
        assert metrics == {"solve_ms": 2.0}


class TestMetricDirection:
    """Direction inference, pinned for the service latency metric classes."""

    @pytest.mark.parametrize(
        "metric",
        [
            "service_cold_submit_latency_ms",
            "service_warm_hit_latency_ms",
            "service_warm_hit_p95_ms",
            "nested.path.service_warm_hit_p95_ms",
        ],
    )
    def test_service_latency_metrics_are_lower_is_better(self, compare_bench, metric):
        assert compare_bench.direction(metric) == -1

    def test_throughput_is_higher_is_better(self, compare_bench):
        assert (
            compare_bench.direction("service_concurrent_throughput_per_second") == 1
        )

    def test_counts_are_informational(self, compare_bench):
        assert compare_bench.direction("warm_rounds") == 0
        assert compare_bench.direction("workers") == 0

    def test_latency_regression_fires_warning(self, compare_bench, tmp_path, capsys):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(
            current,
            "BENCH_service.json",
            {"schema_version": 1, "service_warm_hit_p95_ms": 10.0},
        )
        _write(
            previous,
            "BENCH_service.json",
            {"schema_version": 1, "service_warm_hit_p95_ms": 1.0},
        )
        assert compare_bench.main([str(current), str(previous)]) == 0
        assert "WARNING: regression" in capsys.readouterr().out

    def test_latency_improvement_is_not_a_warning(
        self, compare_bench, tmp_path, capsys
    ):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(
            current,
            "BENCH_service.json",
            {"schema_version": 1, "service_warm_hit_latency_ms": 1.0},
        )
        _write(
            previous,
            "BENCH_service.json",
            {"schema_version": 1, "service_warm_hit_latency_ms": 10.0},
        )
        assert compare_bench.main([str(current), str(previous)]) == 0
        assert "WARNING" not in capsys.readouterr().out


class TestTrendDiff:
    def test_added_and_removed_metrics_are_reported(
        self, compare_bench, tmp_path, capsys
    ):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(current, "BENCH_a.json", {"schema_version": 1, "kept_ms": 2.0, "fresh_ms": 1.0})
        _write(previous, "BENCH_a.json", {"schema_version": 1, "kept_ms": 2.0, "stale_ms": 9.0})
        assert compare_bench.main([str(current), str(previous)]) == 0
        out = capsys.readouterr().out
        assert "fresh_ms: 1 (added)" in out
        assert "stale_ms: removed (was 9)" in out
        assert "1 metric(s) added, 1 removed" in out

    def test_benchmark_files_in_only_one_run_are_reported(
        self, compare_bench, tmp_path, capsys
    ):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(current, "BENCH_new.json", {"schema_version": 1, "x_ms": 1.0})
        _write(current, "BENCH_common.json", {"schema_version": 1, "y_ms": 1.0})
        _write(previous, "BENCH_common.json", {"schema_version": 1, "y_ms": 1.0})
        _write(previous, "BENCH_gone.json", {"schema_version": 1, "z_ms": 4.0})
        assert compare_bench.main([str(current), str(previous)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_new.json (new benchmark" in out
        assert "x_ms: 1 (added)" in out
        assert "BENCH_gone.json (removed — present in the previous run only)" in out
        assert "z_ms: removed (was 4)" in out

    def test_schema_version_change_is_flagged(self, compare_bench, tmp_path, capsys):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(current, "BENCH_a.json", {"schema_version": 2, "solve_ms": 1.0})
        _write(previous, "BENCH_a.json", {"schema_version": 1, "solve_ms": 1.0})
        compare_bench.main([str(current), str(previous)])
        out = capsys.readouterr().out
        assert "schema_version changed: 1 -> 2" in out

    def test_regression_warning_still_fires(self, compare_bench, tmp_path, capsys):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        _write(current, "BENCH_a.json", {"schema_version": 1, "solve_ms": 2.0})
        _write(previous, "BENCH_a.json", {"schema_version": 1, "solve_ms": 1.0})
        assert compare_bench.main([str(current), str(previous)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: regression" in out


class TestPerfbenchLedger:
    """The committed ledger (``bench_ledger.py``) diffs like any artifact."""

    LEDGER = os.path.join(_ROOT, "BENCH_perfbench.json")

    @pytest.fixture
    def ledger(self):
        with open(self.LEDGER, encoding="utf-8") as handle:
            return json.load(handle)

    def test_every_workload_and_end_to_end_metric_is_recorded(self, ledger):
        assert ledger["schema_version"] == 1 and ledger["reference_ms"] > 0
        assert set(ledger["workloads"]) == {
            "fig11_transient", "xor3_mc128", "lattice400_dc", "service_mix"
        }
        for entry in ledger["workloads"].values():
            assert entry["correct"] and entry["failed"] == 0
            assert entry["op_p50_ms_q1"] <= entry["op_p50_ms"] <= entry["op_p50_ms_q3"]
            for name in ("setup_s", "goodput_per_s", "peak_rss_mb"):
                assert entry[name] > 0

    def test_metric_directions(self, compare_bench, ledger):
        metrics = dict(compare_bench.iter_metrics(ledger))
        fig11 = "workloads.fig11_transient."
        assert compare_bench.direction(fig11 + "op_p50_ms") == -1
        assert compare_bench.direction(fig11 + "setup_s") == -1
        assert compare_bench.direction(fig11 + "peak_rss_mb") == -1
        assert compare_bench.direction(fig11 + "goodput_per_s") == 1
        assert compare_bench.direction(fig11 + "traced.engine_newton_iterations") == -1
        assert compare_bench.direction(fig11 + "traced.solvers_factorizations") == -1
        assert compare_bench.direction("reference_ms") == 0
        assert metrics[fig11 + "traced.engine_assemble_calls"] == 2793

    def test_a_slower_workload_is_flagged(self, compare_bench, ledger, tmp_path, capsys):
        _write(tmp_path / "previous", "BENCH_perfbench.json", ledger)
        ledger["workloads"]["fig11_transient"]["op_p50_ms"] *= 1.5
        ledger["reference_ms"] *= 1.5
        _write(tmp_path / "current", "BENCH_perfbench.json", ledger)
        assert compare_bench.main([str(tmp_path / "current"), str(tmp_path / "previous")]) == 0
        flagged = [line for line in capsys.readouterr().out.splitlines() if "WARNING" in line]
        assert len(flagged) == 1 and "workloads.fig11_transient.op_p50_ms:" in flagged[0]

    def test_ledgers_from_different_commands_are_flagged(
        self, compare_bench, ledger, tmp_path, capsys
    ):
        _write(tmp_path / "previous", "BENCH_perfbench.json", ledger)
        ledger["command"] = ledger["command"].replace("--seconds 10", "--seconds 3")
        ledger["workloads"]["lattice400_dc"]["runs"] = 2
        _write(tmp_path / "current", "BENCH_perfbench.json", ledger)
        assert compare_bench.main([str(tmp_path / "current"), str(tmp_path / "previous")]) == 0
        out = capsys.readouterr().out
        assert "! command changed" in out
        assert "! workloads.lattice400_dc.runs changed: 5 -> 2" in out
        assert "2 WARNING(s): the two sides come from different commands" in out
