"""Tests of the durable job journal (:mod:`repro.service.journal`).

The acceptance pins of the fault-tolerance tentpole live here:

* a manager SIGKILLed with one job running and eight-plus queued loses
  nothing — a fresh manager over the same journal and store replays every
  acknowledged job to ``done``, bitwise-JSON-equal to ``Session.run``,
  with duplicate submissions collapsing onto one compute;
* journal records are single atomic line appends; a torn trailing line
  (crash mid-append) is skipped with a warning, never a crash;
* compaction keeps exactly the still-pending ``submit`` records, so the
  journal scales with the backlog and not with service lifetime;
* a journal write failure degrades durability (counted + warned once) but
  never fails a job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.api import (
    CircuitSpec,
    DCOp,
    MonteCarlo,
    SQLiteStore,
    Session,
    spec_hash,
    spec_to_dict,
)
from repro.service import JobJournal, JobManager
from repro.service.journal import (
    decode_spec_payload,
    encode_spec_payload,
)
from repro.spice.montecarlo import Gaussian

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def chain_spec(num_switches=2):
    return DCOp(
        circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": num_switches})
    )


class _BlockingSession:
    """A session stand-in whose run() never returns (until gated)."""

    def __init__(self, gate: threading.Event):
        self.gate = gate

    def run(self, spec):
        self.gate.wait()

    def last_stats_snapshot(self):  # pragma: no cover - gate never opens
        raise AssertionError("blocked session finished")


# ---------------------------------------------------------------------- #
# the journal file format
# ---------------------------------------------------------------------- #


class TestJournalFile:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.append("submit", "aaa", spec={"codec": {"kind": "dcop"}})
        journal.append("start", "aaa")
        journal.append("submit", "bbb", spec={"codec": {"kind": "transient"}})
        pending = journal.replay()
        assert list(pending) == ["aaa", "bbb"]
        assert pending["aaa"].spec == {"codec": {"kind": "dcop"}}
        journal.close()

    def test_terminal_events_drop_from_replay(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        for job_id, terminal in (("a", "finish"), ("b", "fail"), ("c", "cancel")):
            journal.append("submit", job_id, spec={"codec": {}})
            journal.append(terminal, job_id, error="boom")
        journal.append("submit", "d", spec={"codec": {}})
        assert list(journal.replay()) == ["d"]
        journal.close()

    def test_resubmission_after_failure_is_pending_again(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.append("submit", "a", spec={"codec": {"v": 1}})
        journal.append("fail", "a", error="first try")
        journal.append("submit", "a", spec={"codec": {"v": 2}})
        pending = journal.replay()
        assert list(pending) == ["a"]
        # freshest spec payload wins for a re-armed job
        assert pending["a"].spec == {"codec": {"v": 2}}
        journal.close()

    def test_records_are_single_complete_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append("submit", "a", spec={"codec": {"deep": {"n": 1}}})
        journal.append("finish", "a")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)  # every line parses on its own
            assert record["v"] == 1
        journal.close()

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append("submit", "a", spec={"codec": {}})
        journal.close()
        with open(path, "a") as handle:  # the crash leaves half a record
            handle.write('{"v":1,"event":"submit","id":"b","ts":9.9,"sp')
        fresh = JobJournal(str(path))
        with pytest.warns(RuntimeWarning, match="torn"):
            records = list(fresh.records())
        assert [record.job_id for record in records] == ["a"]
        assert list(fresh.replay()) == ["a"]

    def test_unknown_event_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ValueError, match="unknown journal event"):
            journal.append("explode", "a")

    def test_compact_keeps_only_pending_submits(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append("submit", "a", spec={"codec": {}})
        journal.append("start", "a")
        journal.append("finish", "a")
        journal.append("submit", "b", spec={"codec": {"keep": True}})
        dropped = journal.compact()
        assert dropped == 3
        assert list(journal.replay()) == ["b"]
        # the fd was reopened: appends keep landing in the new file
        journal.append("start", "b")
        journal.append("finish", "b")
        assert journal.compact() == 3  # submit+start+finish of b
        assert path.read_text() == ""
        journal.close()

    def test_auto_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path), auto_compact_records=10)
        for index in range(20):
            job_id = f"job-{index}"
            journal.append("submit", job_id, spec={"codec": {}})
            journal.append("finish", job_id)
        # 40 appends with everything terminal: auto-compaction kept the
        # file from accumulating terminal histories.
        assert len(path.read_text().splitlines()) < 12
        journal.close()

    def test_missing_file_replays_empty(self, tmp_path):
        journal = JobJournal(str(tmp_path / "never-written.jsonl"))
        assert journal.replay() == {}
        assert list(journal.records()) == []


class TestSpecPayload:
    def test_codec_roundtrip_preserves_hash(self):
        spec = chain_spec(num_switches=5)
        payload = encode_spec_payload(spec)
        assert "codec" in payload
        decoded = decode_spec_payload(payload)
        assert spec_hash(decoded) == spec_hash(spec)

    def test_rich_specs_fall_back_to_pickle(self, switch_model):
        spec = DCOp(
            circuit=CircuitSpec(
                CHAIN_FACTORY,
                params={"num_switches": 2, "model": switch_model},
            )
        )
        payload = encode_spec_payload(spec)
        assert "pickle" in payload  # the model object has no wire form
        decoded = decode_spec_payload(payload)
        assert spec_hash(decoded) == spec_hash(spec)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="neither 'codec' nor 'pickle'"):
            decode_spec_payload({"something": "else"})


# ---------------------------------------------------------------------- #
# manager integration
# ---------------------------------------------------------------------- #


class TestManagerJournal:
    def test_lifecycle_events_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path), auto_compact_records=None)
        spec = chain_spec()
        with JobManager(workers=1, journal=journal) as manager:
            manager.submit(spec)
            assert manager.join(timeout_s=30)
            events = [record.event for record in journal.records()]
            assert events == ["submit", "start", "finish"]
        # clean close compacts: everything terminal -> empty journal
        assert JobJournal(str(path)).replay() == {}

    def test_failed_job_journaled_as_fail(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"), auto_compact_records=None)
        bad = DCOp(
            circuit=CircuitSpec(
                "repro.circuits.series_chain:build_series_chain",
                params={"num_switches": -1},
            )
        )
        with JobManager(workers=1, journal=journal) as manager:
            manager.submit(bad)
            assert manager.join(timeout_s=30)
            records = list(journal.records())
        assert records[-1].event == "fail"
        assert "at least one switch" in records[-1].error

    def test_abandoned_manager_recovers_in_process(self, tmp_path):
        """Kill-by-abandonment: nothing terminal was written, all replay."""
        store = SQLiteStore(str(tmp_path / "results.db"))
        journal_path = str(tmp_path / "j.jsonl")
        specs = [chain_spec(n) for n in range(2, 10)]
        gate = threading.Event()
        stuck = JobManager(
            store=store,
            workers=1,
            journal=journal_path,
            session_factory=lambda: _BlockingSession(gate),
        )
        for spec in specs:
            stuck.submit(spec)
        specs_dup = specs[0]
        assert stuck.submit(specs_dup).cached  # live-job dedupe
        time.sleep(0.2)
        del stuck  # never closed: the worker stays stuck forever

        recovered = JobManager(store=store, workers=2, journal=journal_path)
        try:
            assert recovered.join(timeout_s=120)
            metrics = recovered.metrics()
            assert metrics["recovered"] == len(specs)
            assert metrics["failed"] == 0
            assert metrics["computed"] == len(specs)
            reference = Session(store=None)
            for spec in specs:
                expected = reference.run(spec)
                got = recovered.result(spec_hash(spec))
                assert got.to_json() == expected.to_json()
        finally:
            recovered.close()
        # after the clean close the journal is fully compacted
        assert JobJournal(journal_path).replay() == {}

    def test_second_recovery_is_warm(self, tmp_path):
        """Jobs finished between crash and restart become instant hits."""
        store = SQLiteStore(str(tmp_path / "results.db"))
        journal_path = str(tmp_path / "j.jsonl")
        spec = chain_spec(3)
        # Warm the store out of band (the "work finished elsewhere" case).
        Session(store=store).run(spec)
        journal = JobJournal(journal_path)
        journal.append(
            "submit", spec_hash(spec), spec=encode_spec_payload(spec)
        )
        journal.close()
        with JobManager(store=store, workers=1, journal=journal_path) as manager:
            assert manager.join(timeout_s=30)
            metrics = manager.metrics()
            assert metrics["recovered"] == 1
            assert metrics["computed"] == 0  # zero Newton work
            assert manager.status(spec_hash(spec)).state == "done"

    def test_older_montecarlo_record_with_null_threads_recovers(self, tmp_path):
        # Journals written before the thread-pool knob was removed carry
        # "threads": null in every MonteCarlo payload; those jobs must
        # replay, not be quarantined as unrecoverable.
        spec = MonteCarlo(
            circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": 3}),
            perturbations={"mos_vth": Gaussian(sigma=0.01)},
            trials=4,
            seed=3,
        )
        older = dict(spec_to_dict(spec), threads=None)
        journal_path = str(tmp_path / "j.jsonl")
        journal = JobJournal(journal_path)
        journal.append(
            "submit",
            "b1b6e93ca69c7cda97ae0fe54671d014a6db83c8c6eb632c1109f20577e91a93",
            spec={"codec": older},
        )
        journal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            manager = JobManager(workers=1, journal=journal_path)
        try:
            assert manager.join(timeout_s=60)
            metrics = manager.metrics()
            assert metrics["recovered"] == 1 and metrics["failed"] == 0
            assert manager.status(spec_hash(spec)).state == "done"
        finally:
            manager.close()

    def test_corrupt_journaled_spec_is_quarantined_not_fatal(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"), auto_compact_records=None)
        journal.append("submit", "not-a-real-hash", spec={"codec": {"bad": 1}})
        journal.close()
        with pytest.warns(RuntimeWarning, match="cannot recover"):
            manager = JobManager(
                workers=1, journal=str(tmp_path / "j.jsonl")
            )
        try:
            assert manager.metrics()["recovered"] == 0
            # the poisoned record went terminal: a third restart is clean
            assert JobJournal(str(tmp_path / "j.jsonl")).replay() == {}
        finally:
            manager.close()

    def test_journal_write_failure_degrades_not_fatal(self, tmp_path):
        # A directory at the journal path makes every append fail.
        bad_path = tmp_path / "journal-is-a-directory"
        bad_path.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with JobManager(workers=1, journal=str(bad_path)) as manager:
                view = manager.submit(chain_spec())
                assert manager.join(timeout_s=30)
                assert manager.status(view.id).state == "done"
                assert manager.metrics()["journal_errors"] > 0


# ---------------------------------------------------------------------- #
# the acceptance pin: SIGKILL -> restart -> zero loss
# ---------------------------------------------------------------------- #


_VICTIM_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
sys.path.insert(0, {aux!r})
from repro.api import CircuitSpec, DCOp, SQLiteStore
from repro.service import JobManager

store = SQLiteStore({db!r})
manager = JobManager(store=store, workers=1, journal={journal!r})

# Job 1 occupies the single worker: its factory spins until the flag file
# disappears (it never does inside this process).
hang = DCOp(circuit=CircuitSpec(
    "gatemod:build_gated",
    params={{"flag_path": {flag!r}, "num_switches": 7}},
))
manager.submit(hang)
# Eight quick jobs queue behind it.  A duplicate submission joins the
# live job (dedupe) and must not enqueue or journal a second time.
for n in range(2, 10):
    manager.submit(DCOp(circuit=CircuitSpec(
        "repro.circuits.series_chain:build_series_chain",
        params={{"num_switches": n}},
    )))
dup = manager.submit(DCOp(circuit=CircuitSpec(
    "repro.circuits.series_chain:build_series_chain",
    params={{"num_switches": 2}},
)))
assert dup.cached
print("SUBMITTED", flush=True)
time.sleep(600)
"""

_GATE_MODULE = """
import os, time

from repro.circuits.series_chain import build_series_chain


def build_gated(flag_path="", num_switches=2):
    while flag_path and os.path.exists(flag_path):
        time.sleep(0.05)
    return build_series_chain(num_switches=num_switches)
"""


class TestSigkillRecovery:
    def test_sigkill_mid_queue_loses_nothing(self, tmp_path):
        db = str(tmp_path / "results.db")
        journal_path = str(tmp_path / "journal.jsonl")
        flag = str(tmp_path / "hang.flag")
        aux = tmp_path / "aux"
        aux.mkdir()
        (aux / "gatemod.py").write_text(_GATE_MODULE)
        open(flag, "w").close()

        script = _VICTIM_SCRIPT.format(
            src=SRC_DIR, aux=str(aux), db=db, journal=journal_path, flag=flag
        )
        victim = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait until every submission is acknowledged (journaled) and
            # the hang job has actually started running.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if os.path.exists(journal_path):
                    text = open(journal_path).read()
                    if text.count('"submit"') >= 9 and '"start"' in text:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("victim never journaled its submissions")
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup only
                victim.kill()
                victim.wait(timeout=30)

        # Nine distinct acknowledged jobs (the live-job duplicate was
        # deduped at submit time), all pending: SIGKILL wrote no terminal
        # records.  Then forge the other duplicate shape — a crash that
        # *did* leave two submit records for one id — by re-appending an
        # existing submit line; replay must still collapse it.
        lines = open(journal_path).read().splitlines()
        dup_line = next(line for line in lines if '"submit"' in line)
        with open(journal_path, "a") as handle:
            handle.write(dup_line + "\n")
        assert len(JobJournal(journal_path).replay()) == 9

        os.unlink(flag)  # in the restarted world the gated build is instant
        store = SQLiteStore(db)
        # gatemod must resolve both during recovery (spec decode) and in
        # the worker threads that rebuild its circuit.
        sys.path.insert(0, str(aux))
        manager = JobManager(store=store, workers=2, journal=journal_path)
        try:
            assert manager.join(timeout_s=300)
            metrics = manager.metrics()
            assert metrics["recovered"] == 9
            assert metrics["failed"] == 0
            # duplicates collapsed: exactly one compute per distinct spec
            assert metrics["computed"] == 9
            assert store.count() == 9

            reference = Session(store=None)
            gated = DCOp(
                circuit=CircuitSpec(
                    "gatemod:build_gated",
                    params={"flag_path": flag, "num_switches": 7},
                )
            )
            expected = reference.run(gated)
            got = manager.result(spec_hash(gated))
            assert got.to_json() == expected.to_json()
            for n in range(2, 10):
                spec = chain_spec(n)
                assert (
                    manager.result(spec_hash(spec)).to_json()
                    == reference.run(spec).to_json()
                )
        finally:
            manager.close()
            sys.path.remove(str(aux))
