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


class TestLedgerInterleaving:
    """``bench_ledger.py --tree OTHER`` runs both trees in one invocation,
    each run of one paired with the same run of the other, and writes a
    ledger for each."""

    @pytest.fixture
    def ledger_tool(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_ledger", os.path.join(_ROOT, "bench_ledger.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        calls = []

        def perfbench(tree, workload, trace):
            # Each tree reads its own op time, so a mixed-up ledger shows.
            calls.append((tree, workload, trace))
            op = 100.0 if tree == module.ROOT else 200.0
            metrics = {
                "op_p50_ms": op + len(calls), "setup_s": 1.0,
                "goodput_per_s": 10.0, "peak_rss_mb": 50.0,
            }
            if trace:
                metrics["engine.assemble_calls"] = op
            return {"correct": True, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(module, "perfbench", perfbench)
        monkeypatch.setattr(module, "reference_loop", lambda tree: lambda: 4.0)
        return module, calls

    def test_two_trees_run_in_pairs_alternating_which_goes_first(self, ledger_tool, tmp_path):
        module, calls = ledger_tool
        other = tmp_path / "parent"
        other.mkdir()
        output = tmp_path / "change.json"
        assert module.main(["--tree", str(other), "--output", str(output)]) == 0
        trees = [str(other), module.ROOT]
        rounds = [
            (repeat, workload)
            for repeat in range(module.REPEATS + 1)
            for workload in module.WORKLOADS
        ]
        assert len(calls) == 2 * len(rounds)
        for (repeat, workload), first, second in zip(rounds, calls[::2], calls[1::2]):
            trace = int(repeat == module.REPEATS)
            assert {first[0], second[0]} == set(trees)
            assert first[1:] == second[1:] == (workload, trace)
        firsts = [call[0] for call in calls[::2]]
        assert firsts == [
            trees[(repeat + index) % 2]
            for repeat in range(module.REPEATS + 1)
            for index in range(len(module.WORKLOADS))
        ]
        with open(output, encoding="utf-8") as handle:
            mine = json.load(handle)
        with open(other / "BENCH_perfbench.json", encoding="utf-8") as handle:
            theirs = json.load(handle)
        for ledger, op in ((mine, 100.0), (theirs, 200.0)):
            for entry in ledger["workloads"].values():
                assert entry["runs"] == module.REPEATS
                assert op < entry["op_p50_ms_q1"] <= entry["op_p50_ms_q3"] < op + 100.0
                assert entry["traced"] == {"engine_assemble_calls": op}
            assert ledger["reference_ms"] == 4.0

    def test_one_tree_alone(self, ledger_tool, tmp_path):
        module, calls = ledger_tool
        output = tmp_path / "ledger.json"
        assert module.main(["--output", str(output)]) == 0
        assert {tree for tree, _, _ in calls} == {module.ROOT}
        assert len(calls) == (module.REPEATS + 1) * len(module.WORKLOADS)
        assert output.exists()

    def test_the_other_tree_must_be_another(self, ledger_tool):
        module, calls = ledger_tool
        with pytest.raises(SystemExit):
            module.main(["--tree", module.ROOT])
        assert calls == []


class TestEndToEndBounds:
    """A ledger's end-to-end metrics are reported against BENCHMARK.json's
    bounds, each in its own better direction."""

    BOUNDS = {
        "end_to_end": [
            {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
            {"name": "goodput_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        ]
    }

    @staticmethod
    def ledger(op_ms, goodput, rss_mb):
        return {
            "schema_version": 1,
            "command": "python3 perfbench/run.py --workload W",
            "workloads": {
                "xor3_mc128": {
                    "op_p50_ms": op_ms, "goodput_per_s": goodput,
                    "peak_rss_mb": rss_mb, "runs": 5,
                }
            },
        }

    def compare(
        self, compare_bench, tmp_path, capsys, monkeypatch, current, previous, bounds=None
    ):
        _write(tmp_path / "current", "BENCH_perfbench.json", current)
        _write(tmp_path / "previous", "BENCH_perfbench.json", previous)
        bounds_path = tmp_path / "BENCHMARK.json"
        bounds_path.write_text(json.dumps(self.BOUNDS if bounds is None else bounds))
        monkeypatch.setattr(compare_bench, "BENCHMARK_JSON", str(bounds_path))
        argv = [str(tmp_path / "current"), str(tmp_path / "previous")]
        assert compare_bench.main(argv) == 0
        out = capsys.readouterr().out
        self.out = out
        return {
            line.split(":")[0].strip(): line
            for line in out.splitlines()
            if line.startswith("   workloads.")
        }

    def test_the_bounds_are_the_repository_benchmarks(self, compare_bench):
        bounds = compare_bench.load_bounds(compare_bench.BENCHMARK_JSON)
        assert bounds["op_p50_ms"] == (-1, 0.25)
        assert bounds["goodput_per_s"] == (1, 0.25)
        assert bounds["peak_rss_mb"] == (-1, 0.1)
        assert set(bounds) == {"setup_s", "op_p50_ms", "goodput_per_s", "peak_rss_mb"}

    def test_every_delta_is_reported_against_its_bound(
        self, compare_bench, tmp_path, capsys, monkeypatch
    ):
        lines = self.compare(
            compare_bench, tmp_path, capsys, monkeypatch,
            self.ledger(op_ms=900.0, goodput=150.0, rss_mb=55.0),
            self.ledger(op_ms=1000.0, goodput=150.0, rss_mb=50.0),
        )
        op = lines["workloads.xor3_mc128.op_p50_ms"]
        assert "(-10.0%; lower is better, bound 25%)" in op and "WARNING" not in op
        # Unchanged, and still reported.
        assert "(+0.0%; higher is better, bound 25%)" in lines["workloads.xor3_mc128.goodput_per_s"]
        # +10 % RSS sits on its 10 % bound: not beyond it.
        rss = lines["workloads.xor3_mc128.peak_rss_mb"]
        assert "(+10.0%; lower is better, bound 10%)" in rss and "WARNING" not in rss
        # Counts and other leaves are not end-to-end metrics.
        assert "workloads.xor3_mc128.runs" not in lines

    def test_worsening_beyond_a_bound_is_flagged_in_its_direction(
        self, compare_bench, tmp_path, capsys, monkeypatch
    ):
        lines = self.compare(
            compare_bench, tmp_path, capsys, monkeypatch,
            self.ledger(op_ms=1200.0, goodput=70.0, rss_mb=56.0),
            self.ledger(op_ms=1000.0, goodput=100.0, rss_mb=50.0),
        )
        # +20 % time is inside the 25 % bound (and the 20 % threshold no
        # longer applies to it); -30 % goodput and +12 % RSS are beyond.
        assert "WARNING" not in lines["workloads.xor3_mc128.op_p50_ms"]
        assert "beyond the BENCHMARK.json bound" in lines["workloads.xor3_mc128.goodput_per_s"]
        assert "beyond the BENCHMARK.json bound" in lines["workloads.xor3_mc128.peak_rss_mb"]
        assert "2 end-to-end metric(s) worsened beyond" in self.out

    def test_without_bounds_the_threshold_applies(
        self, compare_bench, tmp_path, capsys, monkeypatch
    ):
        lines = self.compare(
            compare_bench, tmp_path, capsys, monkeypatch,
            self.ledger(op_ms=1300.0, goodput=100.0, rss_mb=50.0),
            self.ledger(op_ms=1000.0, goodput=100.0, rss_mb=50.0),
            bounds={},
        )
        assert lines["workloads.xor3_mc128.op_p50_ms"].endswith("(+30.0%)  <-- WARNING: regression")
        assert compare_bench.load_bounds(str(tmp_path / "missing.json")) == {}
