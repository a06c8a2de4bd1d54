"""Tests of the distributed study runner (:mod:`repro.api.distributed`).

Covers the acceptance criteria of the distributed tentpole:

* a 64-trial ``MonteCarlo(base=Transient(...))`` study through
  ``DistributedExecutor`` (2 workers, shared ``SQLiteStore``) produces
  ``Result`` JSON bitwise identical to ``SerialExecutor``, with exactly
  one computed store entry per distinct spec hash;
* killing a worker mid-run (the ``_chaos`` hook simulates a hard crash)
  still completes via requeue onto a respawned worker, bit-identically;
* workers dedupe through the shared store — a warm store means zero
  recomputation;
* a failing spec surfaces as a coordinator error after the retry budget,
  instead of hanging the run;
* workers that die during start-up (the parent's ``__main__`` cannot be
  re-imported) are named as such in the coordinator's error;
* store resolution: an executor store, the session store's worker view,
  or an executor-owned temporary SQLite store.

The runs here use the small variability bench (60 fixed steps) so each
test stays in the seconds range; the spawn-based workers re-import the
library, never this test module.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    CircuitSpec,
    DCOp,
    MemoryStore,
    MonteCarlo,
    SQLiteStore,
    Session,
    Transient,
    expand_grid,
    spec_hash,
)
from repro.api.distributed import (
    DistributedExecutor,
    DistributedReport,
    StudyCoordinator,
)
from repro.api.executors import SerialExecutor
from repro.experiments.variability_xor3 import build_variability_bench
from repro.spice import Gaussian

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A script that deletes itself, then fans two specs out to one spawned
#: worker: the worker cannot re-import the parent's ``__main__`` by path.
_SELF_DELETING_SCRIPT = """
import os
import sys

sys.path.insert(0, {src!r})
from repro.api import CircuitSpec, DCOp, Session, expand_grid
from repro.api.distributed import DistributedExecutor
from repro.circuits.sizing import switch_model_from_parameters

os.remove(__file__)
model = switch_model_from_parameters(kp_a_per_v2=4.0e-5, vth_v=0.18, lambda_per_v=0.05)
template = DCOp(circuit=CircuitSpec({factory!r}, params={{"num_switches": 1, "model": model}}))
specs = expand_grid(template, {{"circuit.num_switches": (1, 2)}})
Session(executor=DistributedExecutor(workers=1)).run_many(specs)
"""


@pytest.fixture()
def chain_grid(switch_model):
    template = DCOp(
        circuit=CircuitSpec(
            CHAIN_FACTORY, params={"num_switches": 1, "model": switch_model}
        )
    )
    return expand_grid(template, {"circuit.num_switches": (1, 2, 3, 4, 5)})


@pytest.fixture()
def mc64_specs(switch_model):
    """Three 64-trial MC transient studies over a sigma sweep."""
    bench = CircuitSpec(
        build_variability_bench,
        params={"model": switch_model, "step_duration_s": 20e-9},
    )
    template = MonteCarlo(
        base=Transient(circuit=bench, timestep_s=1e-9),
        perturbations={"mos_vth": Gaussian(sigma=0.03)},
        trials=64,
        seed=42,
        metric_node="out",
    )
    return expand_grid(template, {"seed": (42, 43, 44)})


def assert_bitwise_equal(study_a, study_b):
    assert len(study_a) == len(study_b)
    for a, b in zip(study_a, study_b):
        assert a.to_json() == b.to_json()


class TestDistributedParity:
    def test_dc_grid_matches_serial(self, chain_grid, tmp_path):
        serial = Session(store=None).run_many(
            chain_grid, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(workers=2, store=store)
        distributed = Session(store=None).run_many(chain_grid, executor=executor)
        assert_bitwise_equal(serial, distributed)
        report = executor.last_report
        assert report.tasks == len(chain_grid)
        assert report.computed == len(chain_grid)
        assert report.store_hits == 0 and report.errors == []
        store.close()

    def test_64_trial_mc_transient_acceptance(self, mc64_specs, tmp_path):
        """The ISSUE acceptance run: 64-trial MC transient, 2 workers."""
        serial = Session(store=None).run_many(
            mc64_specs, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(workers=2, store=store)
        distributed = Session(store=None).run_many(mc64_specs, executor=executor)
        assert_bitwise_equal(serial, distributed)
        # Exactly one computed entry per distinct spec hash — the workers
        # deduped through the store and never double-solved.
        distinct = {spec_hash(spec) for spec in mc64_specs}
        assert len(store) == len(distinct)
        assert set(store.keys()) == distinct
        assert executor.last_report.computed == len(distinct)
        store.close()

    def test_worker_death_requeues_and_completes(self, mc64_specs, tmp_path):
        serial = Session(store=None).run_many(
            mc64_specs, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(
            workers=2,
            store=store,
            _chaos={"fault": "die", "on_dispatch": 1},  # hard-kill on first task
        )
        distributed = Session(store=None).run_many(mc64_specs, executor=executor)
        assert_bitwise_equal(serial, distributed)
        report = executor.last_report
        assert report.worker_deaths >= 1
        assert report.requeued >= 1
        assert report.respawned >= 1
        assert report.errors == []
        store.close()

    def test_duplicate_specs_are_one_task(self, chain_grid, tmp_path):
        specs = [chain_grid[0], chain_grid[1], chain_grid[0]]
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(workers=2, store=store)
        study = Session(store=None).run_many(specs, executor=executor)
        assert len(study) == 3
        # run_many dedupes by hash before the executor sees the batch, and
        # the coordinator would dedupe again if handed raw duplicates.
        assert executor.last_report.tasks == 2
        assert executor.last_report.computed == 2  # two distinct hashes
        np.testing.assert_array_equal(
            study[0].arrays["solution"], study[2].arrays["solution"]
        )
        store.close()


class TestStoreDedupe:
    def test_warm_store_means_zero_recomputation(self, chain_grid, tmp_path):
        store = SQLiteStore(str(tmp_path / "shared.db"))
        first = DistributedExecutor(workers=2, store=store)
        Session(store=None).run_many(chain_grid, executor=first)
        assert first.last_report.computed == len(chain_grid)

        second = DistributedExecutor(workers=2, store=store)
        rerun = Session(store=None).run_many(chain_grid, executor=second)
        assert second.last_report.computed == 0
        assert second.last_report.store_hits == len(chain_grid)
        assert len(rerun) == len(chain_grid)
        store.close()

    def test_session_store_worker_view_is_shared(self, chain_grid, tmp_path):
        store = SQLiteStore(str(tmp_path / "shared.db"))
        session = Session(store=store)
        executor = DistributedExecutor(workers=2)
        session.run_many(chain_grid, executor=executor)
        # Workers wrote straight into the session's store.
        assert len(store) == len(chain_grid)
        # A cached re-run needs no executor work at all.
        session.run_many(chain_grid, executor=executor)
        assert session.last_stats.cached == len(chain_grid)
        assert session.last_stats.newton_iterations == 0
        store.close()

    def test_temporary_store_is_cleaned_up(self, chain_grid):
        import tempfile

        temp_root = tempfile.gettempdir()
        before = set(os.listdir(temp_root))
        executor = DistributedExecutor(workers=2)
        study = Session(store=None).run_many(chain_grid, executor=executor)
        assert len(study) == len(chain_grid)
        leftovers = [
            name
            for name in os.listdir(temp_root)
            if name.startswith("repro-distributed-") and name not in before
        ]
        assert leftovers == []


class TestFailureModes:
    def test_failing_spec_surfaces_after_retries(self, switch_model, tmp_path):
        # A chain bench has no input sequence, so a stop-time-less
        # Transient raises in the worker on every attempt.
        chain = CircuitSpec(
            CHAIN_FACTORY, params={"num_switches": 1, "model": switch_model}
        )
        bad = Transient(circuit=chain, timestep_s=1e-9)
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(
            workers=2, store=store, max_task_retries=1
        )
        with pytest.raises(RuntimeError, match="stop_time_s"):
            Session(store=None).run_many([bad], executor=executor)
        store.close()

    def test_startup_deaths_are_named(self, tmp_path):
        script = tmp_path / "self_deleting.py"
        script.write_text(
            _SELF_DELETING_SCRIPT.format(src=SRC_DIR, factory=CHAIN_FACTORY)
        )
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode != 0
        message = completed.stderr.strip().splitlines()[-1]
        assert message.startswith("RuntimeError: distributed run failed")
        assert "2 died during start-up, before reporting ready" in message
        assert re.search(r"last exitcode -?\d+", message)
        assert "__main__" in message

    def test_memory_store_is_rejected(self):
        with pytest.raises(ValueError, match="process-local"):
            StudyCoordinator(workers=2, store=MemoryStore())

    def test_worker_counts_are_validated(self):
        with pytest.raises(ValueError, match="at least one"):
            DistributedExecutor(workers=0)

    def test_empty_spec_list(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "shared.db"))
        coordinator = StudyCoordinator(workers=2, store=store)
        assert coordinator.run(Session(store=None), []) == []
        assert coordinator.report == DistributedReport()
        store.close()


# ---------------------------------------------------------------------- #
# fault tolerance: leases, respawn backoff, quarantine
# ---------------------------------------------------------------------- #


class TestFaultTolerance:
    def test_hung_worker_lease_expires_requeues_and_completes(
        self, chain_grid, tmp_path
    ):
        from repro.testing import stall_worker

        serial = Session(store=None).run_many(
            chain_grid, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(
            workers=2,
            store=store,
            lease_timeout_s=1.0,
            # the worker given the first task stalls forever; its
            # heartbeat keeps beating, so only the lease can catch it
            _chaos=stall_worker(on_dispatch=1),
        )
        distributed = Session(store=None).run_many(
            chain_grid, executor=executor
        )
        assert_bitwise_equal(serial, distributed)
        report = executor.last_report
        assert report.hung_workers >= 1
        assert report.requeued >= 1
        assert report.worker_deaths >= 1  # the stalled worker was killed
        assert report.errors == []
        store.close()

    def test_respawn_backoff_still_reaches_parity(self, chain_grid, tmp_path):
        from repro.testing import kill_worker

        serial = Session(store=None).run_many(
            chain_grid, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(
            workers=2,
            store=store,
            respawn_backoff_s=0.05,
            _chaos=kill_worker(on_dispatch=1),
        )
        distributed = Session(store=None).run_many(
            chain_grid, executor=executor
        )
        assert_bitwise_equal(serial, distributed)
        report = executor.last_report
        assert report.worker_deaths >= 1 and report.respawned >= 1
        store.close()

    def test_quarantine_completes_study_around_a_poisoned_spec(
        self, chain_grid, switch_model, tmp_path
    ):
        # A worker-side failure: the chain bench has no input sequence, so
        # a stop-time-less Transient raises on every attempt.
        bad = Transient(
            circuit=CircuitSpec(
                CHAIN_FACTORY, params={"num_switches": 1, "model": switch_model}
            ),
            timestep_s=1e-9,
        )
        specs = list(chain_grid) + [bad]
        serial_good = Session(store=None).run_many(
            chain_grid, executor=SerialExecutor()
        )
        store = SQLiteStore(str(tmp_path / "shared.db"))
        executor = DistributedExecutor(
            workers=2, store=store, max_task_retries=1, on_error="quarantine"
        )
        study = Session(store=None).run_many(specs, executor=executor)
        report = executor.last_report

        # the healthy specs are untouched by the poison
        for index in range(len(chain_grid)):
            assert study[index].to_json() == serial_good[index].to_json()

        # the poisoned spec came back as a marked placeholder ...
        placeholder = study[-1]
        assert placeholder.meta["quarantined"] is True
        assert "stop_time_s" in placeholder.meta["error"]
        assert placeholder.convergence["converged"] is False

        # ... recorded in the report, not in errors, and never cached
        assert list(report.quarantined) == [spec_hash(bad)]
        assert "stop_time_s" in report.quarantined[spec_hash(bad)]
        assert report.errors == []
        assert store.get(spec_hash(bad)) is None
        store.close()

    def test_fault_knob_validation(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "shared.db"))
        with pytest.raises(ValueError, match="lease_timeout_s"):
            StudyCoordinator(workers=1, store=store, lease_timeout_s=0)
        with pytest.raises(ValueError, match="respawn_backoff_s"):
            StudyCoordinator(workers=1, store=store, respawn_backoff_s=-1)
        with pytest.raises(ValueError, match="on_error"):
            StudyCoordinator(workers=1, store=store, on_error="ignore")
        store.close()
