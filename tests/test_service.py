"""The service front door: JobManager, StudyService routing, HTTP e2e.

The acceptance pins live here: a study submitted as JSON over HTTP must
produce a Result bitwise-JSON-equal to the same spec through
``Session.run``, and an identical resubmission must be a cache hit with
zero new Newton iterations.
"""

import hashlib
import http.client
import json
import os
import sqlite3
import statistics
import threading
import time
import urllib.request

import pytest

from repro.api import CircuitSpec, DCOp, DCSweep, MemoryStore, Session, spec_hash
from repro.api.codec import spec_to_dict
from repro.service import (
    JobManager,
    JobNotDone,
    ServiceClient,
    ServiceClosed,
    ServiceError,
    StudyService,
    UnknownJob,
    serve,
)

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"

# Factories the tests submit by path; the service allowlist must include
# "test_service" for these (the default allows only "repro.").


def build_broken(**_params):
    raise RuntimeError("broken factory exploded")


def build_slow(sleep_s=2.0, **_params):
    time.sleep(sleep_s)
    raise RuntimeError("slow factory finished after its deadline")


_FLAKY_FAILURES = {}


def build_flaky(fail_times=1, tag=0):
    """Fail the first `fail_times` calls (per tag), then build a circuit."""
    from repro.circuits.series_chain import build_series_chain

    remaining = _FLAKY_FAILURES.setdefault((fail_times, tag), fail_times)
    if remaining > 0:
        _FLAKY_FAILURES[(fail_times, tag)] = remaining - 1
        raise RuntimeError(f"flaky failure ({remaining} left)")
    return build_series_chain(num_switches=2)


def chain_spec(num_switches=2, **overrides):
    return DCOp(
        circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": num_switches}),
        **overrides,
    )


def broken_spec(tag=0):
    return DCOp(circuit=CircuitSpec("test_service:build_broken", params={"tag": tag}))


def slow_spec(sleep_s=2.0, tag=0):
    return DCOp(
        circuit=CircuitSpec(
            "test_service:build_slow", params={"sleep_s": sleep_s, "tag": tag}
        )
    )


# ---------------------------------------------------------------------- #
# JobManager
# ---------------------------------------------------------------------- #


class TestJobManager:
    def test_job_id_is_the_spec_hash(self):
        spec = chain_spec()
        with JobManager(workers=1) as manager:
            view = manager.submit(spec)
            assert view.id == spec_hash(spec)
            assert view.state in ("queued", "running", "done")
            assert manager.join(timeout_s=30)
            done = manager.status(view.id)
        assert done.state == "done"
        assert done.stats.computed == 1
        assert done.stats.newton_iterations > 0
        assert done.wall_s is not None and done.wall_s >= 0

    def test_result_matches_session_run(self):
        spec = chain_spec(num_switches=3)
        with JobManager(workers=1) as manager:
            view = manager.submit(spec)
            manager.join(timeout_s=30)
            over_jobs = manager.result(view.id)
        reference = Session(store=MemoryStore()).run(spec)
        assert over_jobs.to_json() == reference.to_json()

    def test_duplicate_submission_is_cached_and_computes_once(self):
        spec = chain_spec()
        with JobManager(workers=2) as manager:
            first = manager.submit(spec)
            assert not first.cached
            manager.join(timeout_s=30)
            again = manager.submit(spec)
            assert again.cached
            assert again.id == first.id
            metrics = manager.metrics()
        assert metrics["computed"] == 1
        assert metrics["cache_hits"] >= 1

    def test_resubmission_adds_zero_newton_iterations(self):
        spec = chain_spec()
        with JobManager(workers=1) as manager:
            manager.submit(spec)
            manager.join(timeout_s=30)
            newton_after_compute = manager.metrics()["newton_iterations"]
            assert newton_after_compute > 0
            for _ in range(5):
                assert manager.submit(spec).cached
            manager.join(timeout_s=30)
            assert manager.metrics()["newton_iterations"] == newton_after_compute

    def test_concurrent_duplicate_submissions_collapse(self):
        spec = chain_spec(num_switches=4)
        with JobManager(workers=4) as manager:
            views = [None] * 16
            submit = manager.submit

            def hammer(slot):
                views[slot] = submit(spec)

            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert manager.join(timeout_s=60)
            metrics = manager.metrics()
        assert len({view.id for view in views}) == 1
        assert metrics["computed"] == 1
        assert sum(not view.cached for view in views) == 1

    def test_live_join_counts_as_cache_hit(self):
        # A submission joining a queued/running job is a dedupe hit just
        # like a done-join or a store hit; /metrics must count it so
        # cache_hits tracks 'submitted' during concurrent duplicate bursts.
        from repro.api.session import RunStatsSnapshot

        started = threading.Event()
        release = threading.Event()

        class BlockingSession:
            def run(self, spec):
                started.set()
                assert release.wait(timeout=30)

            def last_stats_snapshot(self):
                return RunStatsSnapshot(computed=1, newton_iterations=1)

        spec = chain_spec()
        with JobManager(workers=1, session_factory=BlockingSession) as manager:
            first = manager.submit(spec)
            assert not first.cached
            assert started.wait(timeout=30)
            joined = manager.submit(spec)  # joins the running job
            assert joined.cached and joined.id == first.id
            assert manager.metrics()["cache_hits"] == 1
            release.set()
            assert manager.join(timeout_s=30)

    def test_warm_store_turns_restart_into_cache_hit(self):
        spec = chain_spec()
        store = MemoryStore()
        with JobManager(store=store, workers=1) as manager:
            view = manager.submit(spec)
            manager.join(timeout_s=30)
        # "Restart": a fresh manager over the same store.
        with JobManager(store=store, workers=1) as reborn:
            hit = reborn.submit(spec)
            assert hit.cached
            assert hit.state == "done"
            assert hit.stats.computed == 0
            assert hit.stats.newton_iterations == 0
            assert reborn.result(hit.id).to_json() == manager.result(view.id).to_json()
            assert reborn.metrics()["computed"] == 0

    def test_unknown_job_and_not_done(self):
        with JobManager(workers=1) as manager:
            with pytest.raises(UnknownJob, match="unknown job"):
                manager.status("deadbeef")
            with pytest.raises(UnknownJob):
                manager.result("deadbeef")
            view = manager.submit(broken_spec())
            manager.join(timeout_s=30)
            with pytest.raises(JobNotDone, match="failed"):
                manager.result(view.id)

    def test_failure_is_recorded_not_raised(self):
        with JobManager(workers=1) as manager:
            view = manager.submit(broken_spec(tag=1))
            manager.join(timeout_s=30)
            failed = manager.status(view.id)
        assert failed.state == "failed"
        assert "broken factory exploded" in failed.error
        assert failed.attempts == 1

    def test_resubmitting_a_failed_job_rearms_it(self):
        _FLAKY_FAILURES.clear()
        spec = DCOp(
            circuit=CircuitSpec(
                "test_service:build_flaky", params={"fail_times": 1, "tag": 2}
            )
        )
        with JobManager(workers=1) as manager:
            first = manager.submit(spec)
            manager.join(timeout_s=30)
            assert manager.status(first.id).state == "failed"
            second = manager.submit(spec)
            assert not second.cached
            manager.join(timeout_s=30)
            assert manager.status(first.id).state == "done"

    def test_bounded_retries_eventually_succeed(self):
        _FLAKY_FAILURES.clear()
        spec = DCOp(
            circuit=CircuitSpec(
                "test_service:build_flaky", params={"fail_times": 2, "tag": 3}
            )
        )
        with JobManager(workers=1, max_retries=2) as manager:
            view = manager.submit(spec)
            manager.join(timeout_s=30)
            done = manager.status(view.id)
            metrics = manager.metrics()
        assert done.state == "done"
        assert done.attempts == 3
        assert metrics["retries"] == 2

    def test_retry_budget_is_bounded(self):
        with JobManager(workers=1, max_retries=1) as manager:
            view = manager.submit(broken_spec(tag=4))
            manager.join(timeout_s=30)
            failed = manager.status(view.id)
            metrics = manager.metrics()
        assert failed.state == "failed"
        assert failed.attempts == 2
        assert metrics["retries"] == 1
        assert metrics["failed"] == 1

    def test_job_timeout_fails_the_job(self):
        with JobManager(workers=1, job_timeout_s=0.2) as manager:
            view = manager.submit(slow_spec(sleep_s=10.0, tag=5))
            manager.join(timeout_s=30)
            failed = manager.status(view.id)
            metrics = manager.metrics()
        assert failed.state == "failed"
        assert "timeout" in failed.error.lower()
        assert metrics["timeouts"] == 1

    def test_worker_survives_a_timeout(self):
        # The timed-out session is abandoned; the same (sole) worker must
        # still complete the next job on a fresh session.
        with JobManager(workers=1, job_timeout_s=0.2) as manager:
            manager.submit(slow_spec(sleep_s=1.0, tag=6))
            good = manager.submit(chain_spec())
            assert manager.join(timeout_s=60)
            assert manager.status(good.id).state == "done"

    def test_close_rejects_new_submissions(self):
        manager = JobManager(workers=1)
        manager.close()
        with pytest.raises(ServiceClosed):
            manager.submit(chain_spec())
        manager.close()  # idempotent

    def test_drain_finishes_queued_work(self):
        manager = JobManager(workers=1)
        views = [manager.submit(chain_spec(num_switches=n)) for n in (2, 3)]
        manager.close(drain=True, timeout_s=60)
        for view in views:
            assert manager.status(view.id).state == "done"

    def test_cancel_marks_queued_jobs_failed(self):
        manager = JobManager(workers=1)
        blocker = manager.submit(slow_spec(sleep_s=1.0, tag=7))
        queued = manager.submit(chain_spec(num_switches=5))
        manager.close(drain=False, timeout_s=60)
        cancelled = manager.status(queued.id)
        assert cancelled.state == "failed"
        assert "cancelled at shutdown" in cancelled.error
        assert blocker.id != queued.id

    def test_submit_rejects_non_specs(self):
        with JobManager(workers=1) as manager:
            with pytest.raises(TypeError, match="analysis spec"):
                manager.submit({"kind": "dcop"})

    def test_metrics_shape(self):
        with JobManager(workers=3) as manager:
            manager.submit(chain_spec())
            manager.join(timeout_s=30)
            metrics = manager.metrics()
        for key in (
            "submitted",
            "computed",
            "cache_hits",
            "failed",
            "retries",
            "timeouts",
            "newton_iterations",
            "queue_depth",
            "workers",
            "solve_wall_ms_histogram",
        ):
            assert key in metrics
        assert metrics["workers"] == 3
        histogram = metrics["solve_wall_ms_histogram"]
        assert "inf" in histogram
        assert sum(histogram.values()) == 1  # the one computed solve
        json.dumps(metrics)  # must be JSON-safe as-is

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="worker"):
            JobManager(workers=0)
        with pytest.raises(ValueError, match="job_timeout_s"):
            JobManager(job_timeout_s=0)
        with pytest.raises(ValueError, match="max_retries"):
            JobManager(max_retries=-1)


# ---------------------------------------------------------------------- #
# StudyService (transport-agnostic: no sockets)
# ---------------------------------------------------------------------- #


@pytest.fixture()
def service():
    manager = JobManager(workers=1)
    yield StudyService(
        manager, allowed_factory_prefixes=("repro.", "test_service")
    )
    manager.close(drain=False, timeout_s=10)


def post_json(service, payload):
    return service.handle("POST", "/studies", json.dumps(payload).encode("utf-8"))


class TestServiceErrorPaths:
    """Every bad input is a 4xx with an actionable message — never a 500."""

    def test_malformed_json(self, service):
        status, payload = service.handle("POST", "/studies", b"{not json")
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_non_utf8_body(self, service):
        status, payload = service.handle("POST", "/studies", b"\xff\xfe{}")
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_unknown_spec_kind(self, service):
        status, payload = post_json(service, {"kind": "acsweep"})
        assert status == 400
        assert "acsweep" in payload["error"]
        assert "dcop" in payload["error"]  # the fix is named

    def test_unknown_spec_field(self, service):
        wire = spec_to_dict(chain_spec())
        wire["tolerence_v"] = 1e-6
        status, payload = post_json(service, wire)
        assert status == 400
        assert "tolerence_v" in payload["error"]

    def test_bad_factory_path(self, service):
        status, payload = post_json(
            service,
            {"kind": "dcop", "circuit": {"factory": "repro.no_such_module:f"}},
        )
        assert status == 400
        assert "does not resolve" in payload["error"]

    def test_factory_outside_allowlist(self, service):
        status, payload = post_json(
            service, {"kind": "dcop", "circuit": {"factory": "os.path:join"}}
        )
        assert status == 400
        assert "allowed namespaces" in payload["error"]

    def test_oversized_payload(self):
        manager = JobManager(workers=1)
        try:
            tiny = StudyService(manager, max_body_bytes=64)
            body = json.dumps(
                {"kind": "dcop", "padding": "x" * 200}
            ).encode("utf-8")
            status, payload = tiny.handle("POST", "/studies", body)
            assert status == 413
            assert "64-byte limit" in payload["error"]
        finally:
            manager.close(drain=False, timeout_s=10)

    def test_unknown_job_id(self, service):
        status, payload = service.handle("GET", "/studies/deadbeef")
        assert status == 404
        assert "deadbeef" in payload["error"]
        status, payload = service.handle("GET", "/studies/deadbeef/result")
        assert status == 404

    def test_unknown_route(self, service):
        status, payload = service.handle("GET", "/nope")
        assert status == 404
        assert "/studies" in payload["error"]

    def test_wrong_method(self, service):
        status, payload = service.handle("POST", "/results")
        assert status == 405
        assert "GET" in payload["error"]

    def test_unknown_result_fields(self, service):
        status, payload = service.handle("GET", "/results?fields=scalars,wibble")
        assert status == 400
        assert "wibble" in payload["error"]
        assert "scalars" in payload["error"]

    def test_unknown_query_parameter(self, service):
        status, payload = service.handle("GET", "/results?pagesize=3")
        assert status == 400
        assert "pagesize" in payload["error"]

    def test_non_integer_and_negative_paging(self, service):
        status, payload = service.handle("GET", "/results?limit=lots")
        assert status == 400
        assert "not an integer" in payload["error"]
        status, payload = service.handle("GET", "/results?offset=-3")
        assert status == 400

    def test_limit_over_page_ceiling(self, service):
        status, payload = service.handle("GET", "/results?limit=100000")
        assert status == 400
        assert "ceiling" in payload["error"]

    def test_pending_result_is_409(self, service):
        status, submitted = post_json(service, spec_to_dict(slow_spec(tag=8)))
        assert status == 202
        status, payload = service.handle(
            "GET", f"/studies/{submitted['id']}/result"
        )
        assert status == 409
        assert "poll" in payload["error"]

    def test_failed_result_is_409_with_cause(self, service):
        status, submitted = post_json(service, spec_to_dict(broken_spec(tag=9)))
        service.manager.join(timeout_s=30)
        status, payload = service.handle(
            "GET", f"/studies/{submitted['id']}/result"
        )
        assert status == 409
        assert "broken factory exploded" in payload["error"]

    def test_evicted_result_is_410(self, service):
        status, submitted = post_json(service, spec_to_dict(chain_spec()))
        service.manager.join(timeout_s=30)
        service.manager.store.delete(submitted["id"])
        status, payload = service.handle(
            "GET", f"/studies/{submitted['id']}/result"
        )
        assert status == 410
        assert "resubmit" in payload["error"]

    def test_submission_after_close_is_503(self, service):
        service.manager.close(drain=False, timeout_s=10)
        status, payload = post_json(service, spec_to_dict(chain_spec()))
        assert status == 503

    def test_nothing_here_ever_500s(self, service):
        probes = [
            ("POST", "/studies", b"garbage"),
            ("POST", "/studies", b'{"kind": 3}'),
            ("POST", "/studies", b'{"kind": "dcop", "circuit": 5}'),
            ("POST", "/studies", b'{"kind": "dcop", "circuit": {"factory": "x"}}'),
            ("GET", "/studies/%20", b""),
            ("GET", "/results?limit=nan", b""),
            ("GET", "/metrics/extra", b""),
            ("PUT", "/healthz", b""),
        ]
        for method, target, body in probes:
            status, payload = service.handle(method, target, body)
            assert 400 <= status < 500, (method, target, status)
            assert "error" in payload


class TestServiceRoutes:
    def test_submit_status_result_flow(self, service):
        spec = chain_spec()
        status, submitted = post_json(service, spec_to_dict(spec))
        assert status == 202
        assert submitted["id"] == spec_hash(spec)
        assert submitted["location"] == f"/studies/{submitted['id']}"
        service.manager.join(timeout_s=30)
        status, job = service.handle("GET", submitted["location"])
        assert status == 200
        assert job["state"] == "done"
        assert job["stats"]["computed"] == 1
        status, result = service.handle("GET", submitted["location"] + "/result")
        assert status == 200
        assert result["spec_hash"] == submitted["id"]

    def test_resubmission_returns_200_cached(self, service):
        wire = spec_to_dict(chain_spec())
        post_json(service, wire)
        service.manager.join(timeout_s=30)
        status, payload = post_json(service, wire)
        assert status == 200
        assert payload["cached"] is True

    def test_sparse_field_selection(self, service):
        status, submitted = post_json(service, spec_to_dict(chain_spec()))
        service.manager.join(timeout_s=30)
        status, sparse = service.handle(
            "GET", f"/studies/{submitted['id']}/result?fields=scalars"
        )
        assert status == 200
        assert "scalars" in sparse
        assert "arrays" not in sparse
        for always in ("kind", "spec_hash", "schema_version"):
            assert always in sparse

    def test_results_pagination(self, service):
        for n in (2, 3, 4):
            post_json(service, spec_to_dict(chain_spec(num_switches=n)))
        service.manager.join(timeout_s=60)
        status, page = service.handle("GET", "/results?limit=2")
        assert status == 200
        assert page["returned"] == 2 and page["total"] == 3
        status, rest = service.handle("GET", "/results?limit=2&offset=2")
        assert rest["returned"] == 1
        ids = {r["spec_hash"] for r in page["results"]} | {
            r["spec_hash"] for r in rest["results"]
        }
        assert len(ids) == 3
        status, none = service.handle("GET", "/results?kind=transient")
        assert none["total"] == 0

    def test_healthz_and_metrics(self, service):
        post_json(service, spec_to_dict(chain_spec()))
        service.manager.join(timeout_s=30)
        status, health = service.handle("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 1
        status, metrics = service.handle("GET", "/metrics")
        assert status == 200
        assert metrics["requests"]["POST /studies"]["202"] == 1
        assert metrics["jobs"]["computed"] == 1
        json.dumps(metrics)

    def test_error_requests_count_under_route_templates(self, service):
        # Error responses must never key the request counters on the raw
        # path — a 404 scan or per-job 409 polling would otherwise grow
        # one counter entry per distinct path for the server's lifetime.
        for path in ("/nope", "/nope/deeper", "/studies/a/b/c"):
            service.handle("GET", path)
        service.handle("GET", "/studies/deadbeef")         # 404, unknown id
        service.handle("GET", "/studies/feedface/result")  # 404, unknown id
        service.handle("POST", "/results")                 # 405
        _, metrics = service.handle("GET", "/metrics")
        requests = metrics["requests"]
        assert requests["GET unknown"]["404"] == 3
        assert requests["GET /studies/{id}"]["404"] == 1
        assert requests["GET /studies/{id}/result"]["404"] == 1
        assert requests["POST /results"]["405"] == 1
        for raw in ("nope", "deadbeef", "feedface", "/a/b/c"):
            assert not any(raw in route for route in requests)


# ---------------------------------------------------------------------- #
# end-to-end over real sockets (the acceptance pins)
# ---------------------------------------------------------------------- #


class TestHTTPEndToEnd:
    @pytest.fixture()
    def server(self):
        instance = serve(workers=2)
        yield instance
        instance.close(drain=False)

    def test_http_result_is_bitwise_equal_to_session_run(self, server):
        spec = chain_spec(num_switches=3)
        client = ServiceClient(server.url)
        over_http = client.run(spec, timeout_s=60)
        reference = Session(store=MemoryStore()).run(spec)
        assert over_http.to_json() == reference.to_json()

    def test_resubmission_is_a_cache_hit_with_zero_newton(self, server):
        spec = chain_spec(num_switches=3)
        client = ServiceClient(server.url)
        first = client.submit(spec)
        assert first["cached"] is False
        client.wait(first["id"], timeout_s=60)
        newton_after_compute = client.metrics()["jobs"]["newton_iterations"]
        assert newton_after_compute > 0
        again = client.submit(spec)
        assert again["cached"] is True
        assert again["id"] == first["id"]
        jobs = client.metrics()["jobs"]
        assert jobs["computed"] == 1
        assert jobs["newton_iterations"] == newton_after_compute

    def test_concurrent_duplicate_submissions_compute_once(self, server):
        spec_wire = spec_to_dict(chain_spec(num_switches=4))
        client = ServiceClient(server.url)
        submissions = [None] * 12

        def hammer(slot):
            submissions[slot] = client.submit(dict(spec_wire))

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = {submission["id"] for submission in submissions}
        assert len(ids) == 1
        client.wait(ids.pop(), timeout_s=60)
        assert client.metrics()["jobs"]["computed"] == 1

    def test_client_surfaces_server_errors(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "acsweep"})
        assert excinfo.value.status == 400
        assert "acsweep" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client.status("deadbeef")
        assert excinfo.value.status == 404

    def test_client_pagination_and_fields(self, server):
        client = ServiceClient(server.url)
        client.run(chain_spec(num_switches=2), timeout_s=60)
        client.run(
            DCSweep(
                circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": 2}),
                source="v_drive",
                values=(0.0, 1.2),
            ),
            timeout_s=60,
        )
        listing = client.results(limit=10, fields=["meta"])
        assert len(listing) == 2
        assert all("arrays" not in entry for entry in listing)
        only_sweeps = client.results(kind="dcsweep")
        assert len(only_sweeps) == 1
        assert client.health()["status"] == "ok"

    def test_missing_content_length_is_411(self, server):
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/studies", skip_accept_encoding=True)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 411
        finally:
            connection.close()


class TestVerbatimResultRoute:
    """The full result route serves the store's validated canonical text."""

    @pytest.fixture()
    def server(self, tmp_path):
        from repro.api.stores import SQLiteStore

        self.db_path = os.path.join(str(tmp_path), "results.db")
        instance = serve(store=SQLiteStore(self.db_path), workers=1)
        yield instance
        instance.close(drain=False)

    def finished(self, server, spec):
        client = ServiceClient(server.url)
        job_id = client.submit(spec)["id"]
        client.wait(job_id, timeout_s=60)
        return job_id

    def fetch(self, server, path):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_body_is_byte_equal_to_session_run(self, server):
        spec = chain_spec(num_switches=3)
        job_id = self.finished(server, spec)
        with urllib.request.urlopen(f"{server.url}/studies/{job_id}/result") as reply:
            body = reply.read()
        reference = Session(store=None).run(spec).to_json().encode("utf-8")
        assert hashlib.sha256(body).hexdigest() == hashlib.sha256(reference).hexdigest()

    def test_handle_still_returns_the_decoded_dict(self, server):
        job_id = self.finished(server, chain_spec(num_switches=3))
        status, body = self.fetch(server, f"/studies/{job_id}/result")
        assert status == 200
        status, payload = server.service.handle("GET", f"/studies/{job_id}/result")
        assert status == 200
        assert isinstance(payload, dict)
        assert payload == json.loads(body)

    def test_field_selection_is_unchanged(self, server):
        spec = chain_spec(num_switches=3)
        job_id = self.finished(server, spec)
        status, body = self.fetch(server, f"/studies/{job_id}/result?fields=scalars")
        assert status == 200
        full = Session(store=None).run(spec).to_jsonable()
        expected = {
            name: full[name]
            for name in ("schema_version", "kind", "spec_hash", "scalars")
        }
        assert body == json.dumps(expected, sort_keys=True).encode("utf-8")

    def test_row_corrupted_after_completion_is_410(self, server):
        job_id = self.finished(server, chain_spec(num_switches=3))
        with sqlite3.connect(self.db_path) as connection:
            connection.execute("UPDATE results SET payload = '{torn'")
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            status, body = self.fetch(server, f"/studies/{job_id}/result")
        assert status == 410
        assert "evicted" in json.loads(body)["error"]


def test_directory_store_result_route_serves_the_back_tier_text(
    tmp_path, monkeypatch
):
    # serve(store=<dir>) is memory over <dir>/results.db: the route serves
    # the row's validated text instead of re-encoding the memory tier's
    # result.
    from repro.api.results import Result

    spec = chain_spec(num_switches=3)
    reference = Session(store=None).run(spec).to_json().encode("utf-8")
    with serve(store=str(tmp_path / "cache"), workers=1) as server:
        client = ServiceClient(server.url)
        job_id = client.submit(spec)["id"]
        client.wait(job_id, timeout_s=60)
        url = f"{server.url}/studies/{job_id}/result"
        with urllib.request.urlopen(url) as reply:
            first = reply.read()
        encodes = []
        original = Result.to_json

        def counting_to_json(self):
            encodes.append(self.spec_hash)
            return original(self)

        monkeypatch.setattr(Result, "to_json", counting_to_json)
        with urllib.request.urlopen(url) as reply:
            second = reply.read()
    digest = hashlib.sha256(reference).hexdigest()
    assert hashlib.sha256(first).hexdigest() == digest
    assert hashlib.sha256(second).hexdigest() == digest
    assert encodes == []


@pytest.mark.parametrize("path", [b"cache", "cache"], ids=["bytes", "str"])
def test_serve_store_path_is_checked_at_construction(path, tmp_path, monkeypatch):
    # A bytes path used to be accepted here and fail on every later read
    # ("Can't mix strings and bytes in path components"); Session and
    # serve share one resolver, which rejects it before any listener.
    monkeypatch.chdir(tmp_path)
    if isinstance(path, bytes):
        with pytest.raises(TypeError, match="directory path"):
            serve(store=path, workers=1)
        assert os.listdir(tmp_path) == []
        return
    with serve(store=path, workers=1) as server:
        client = ServiceClient(server.url)
        job_id = client.submit(chain_spec(num_switches=2))["id"]
        client.wait(job_id, timeout_s=60)
        assert client.result(job_id).kind == "dcop"
    assert os.path.exists(tmp_path / "cache" / "results.db")


def test_keep_alive_responses_do_not_stall():
    # Headers and body are separate writes; with Nagle's algorithm on, the
    # body of every response after the first waits for the client's
    # delayed ACK (about 40 ms on Linux).
    with serve(workers=1) as server:
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        elapsed_ms = []
        try:
            for _ in range(15):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                elapsed_ms.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
        finally:
            connection.close()
    assert statistics.median(elapsed_ms[1:]) < 20.0, elapsed_ms


# ---------------------------------------------------------------------- #
# overload shedding and client retry (the fault-tolerance satellites)
# ---------------------------------------------------------------------- #


class TestOverloadShedding:
    def test_queue_bound_sheds_with_retry_after(self):
        manager = JobManager(workers=1)
        service = StudyService(
            manager,
            allowed_factory_prefixes=("repro.", "test_service"),
            max_queue_depth=1,
            retry_after_s=0.5,
        )
        try:
            occupied = post_json(service, spec_to_dict(slow_spec(sleep_s=2.0)))
            assert occupied[0] == 202
            deadline = time.monotonic() + 10
            while manager.status(occupied[1]["id"]).state != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = post_json(service, spec_to_dict(chain_spec(num_switches=2)))
            assert queued[0] == 202

            body = json.dumps(spec_to_dict(chain_spec(num_switches=3)))
            status, payload, headers = service.handle_request(
                "POST", "/studies", body.encode("utf-8")
            )
            assert status == 503
            assert headers["Retry-After"] == "0.5"
            assert "queue depth" in payload["error"]
            # Nothing was enqueued for the shed submission.
            with pytest.raises(UnknownJob):
                manager.status(spec_hash(chain_spec(num_switches=3)))
            _, metrics = service.handle("GET", "/metrics")
            assert metrics["shed_submissions"] == 1
        finally:
            manager.close(drain=False, timeout_s=15)

    def test_shedding_knob_validation(self):
        manager = JobManager(workers=1)
        try:
            with pytest.raises(ValueError, match="max_queue_depth"):
                StudyService(manager, max_queue_depth=0)
            with pytest.raises(ValueError, match="retry_after_s"):
                StudyService(manager, max_queue_depth=1, retry_after_s=0)
        finally:
            manager.close(drain=False, timeout_s=10)


class TestClientRetry:
    def test_parse_retry_after(self):
        parse = ServiceClient._parse_retry_after
        assert parse(None) is None
        assert parse({}) is None
        assert parse({"Retry-After": "1.5"}) == 1.5
        assert parse({"Retry-After": "nonsense"}) is None
        assert parse({"Retry-After": "-3"}) == 0.0

    def test_connection_errors_retry_with_backoff(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        sleeps = []
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            timeout_s=2.0,
            retries=2,
            backoff_s=0.01,
            _sleep=sleeps.append,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "cannot reach" in excinfo.value.message
        assert sleeps == [0.01, 0.02]

    def test_permanent_errors_never_retry(self):
        manager = JobManager(workers=1)
        service = StudyService(manager)
        try:
            status, payload = post_json(service, {"kind": "acsweep"})
            assert status == 400  # transport-agnostic sanity
        finally:
            manager.close(drain=False, timeout_s=10)

    def test_client_rides_out_saturation_via_retry_after(self):
        server = serve(
            workers=1,
            allowed_factory_prefixes=("repro.", "test_service"),
            max_queue_depth=1,
            retry_after_s=0.2,
        )
        sleeps = []

        def sleeping(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        try:
            fast = ServiceClient(server.url, retries=0)
            occupied = fast.submit(slow_spec(sleep_s=1.5, tag="saturate"))
            deadline = time.monotonic() + 10
            while fast.status(occupied["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            fast.submit(chain_spec(num_switches=2))  # fills the queue

            patient = ServiceClient(
                server.url, retries=30, backoff_s=0.05, _sleep=sleeping
            )
            result = patient.run(chain_spec(num_switches=3), timeout_s=60)
            reference = Session(store=MemoryStore()).run(
                chain_spec(num_switches=3)
            )
            assert result.to_json() == reference.to_json()
            # At least one attempt was shed and the client slept the
            # server-advertised interval, not its own backoff guess.
            assert sleeps and all(s == 0.2 for s in sleeps)
        finally:
            server.close(drain=False)
