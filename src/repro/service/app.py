"""The HTTP front door: spec JSON in, job ids and Result JSON out.

Zero hard dependencies beyond the standard library — the server is a
:class:`http.server.ThreadingHTTPServer` so any machine that can run the
engine can serve it.  The HTTP layer is deliberately thin: all routing and
payload logic lives in the transport-agnostic :class:`StudyService` (tests
drive it directly, without sockets), and all execution/dedupe logic lives
in :class:`~repro.service.jobs.JobManager`.

Endpoints
---------

====== ============================ ==========================================
POST   ``/studies``                 submit a spec (:func:`repro.api.spec_from_dict`
                                    wire form) -> ``{"id", "state", "cached"}``;
                                    the id is the spec content hash, so
                                    identical submissions share one job
GET    ``/studies/{id}``            job status + read-only RunStats counters
GET    ``/studies/{id}/result``     the Result JSON (the store's validated
                                    canonical text, served as-is), with
                                    sparse field selection via
                                    ``?fields=scalars,meta``
GET    ``/results``                 paginated store listing
                                    (``?kind=&limit=&offset=&fields=``)
GET    ``/healthz``                 liveness + worker/queue snapshot
GET    ``/metrics``                 JSON counters: requests by route/status,
                                    cache hits vs computes, queue depth,
                                    solve wall-time histogram
====== ============================ ==========================================

Every error is a JSON body ``{"error": ...}`` with a 4xx status and an
actionable message — malformed JSON, unknown spec kinds, disallowed or
unresolvable factory paths, oversized payloads and unknown job ids never
surface as a 500 traceback.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.api.codec import SpecDecodeError, spec_from_dict
from repro.api.results import ResultSet
from repro.service.jobs import JobManager, JobNotDone, ServiceClosed, UnknownJob

__all__ = ["StudyService", "StudyServer", "serve", "RESULT_SECTIONS"]

#: Top-level Result sections ``?fields=`` may select; identity fields
#: (kind/spec_hash/schema_version) are always included.
RESULT_SECTIONS = (
    "arrays",
    "scalars",
    "convergence",
    "provenance",
    "meta",
    "children",
)
_ALWAYS_FIELDS = ("schema_version", "kind", "spec_hash")

#: Default request-body ceiling (a spec is a few KB; 2 MiB is generous).
MAX_BODY_BYTES = 2 * 1024 * 1024

#: Hard ceiling on one ``GET /results`` page.
MAX_PAGE_LIMIT = 500


class _RawJSON(str):
    """A response payload that is already canonical JSON text.

    The full-result route returns the stored text in this wrapper; the
    HTTP shell writes it as-is instead of passing it to ``json.dumps``.
    """


class _HTTPError(Exception):
    """Internal control flow: abort the request with a status + message."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ):
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        super().__init__(message)


class StudyService:
    """Transport-agnostic request core (see the module docstring).

    Parameters
    ----------
    manager:
        The :class:`~repro.service.jobs.JobManager` that runs submissions.
    allowed_factory_prefixes:
        Import-path namespaces submitted circuit factories may live in
        (checked *before* anything is imported).  Defaults to
        ``("repro.",)``; pass your own tuple to open other namespaces, or
        ``None`` to disable the check entirely (trusted clients only).
    max_body_bytes:
        Request-body ceiling; larger submissions get a 413.
    max_queue_depth:
        Load shedding: when this many jobs are already waiting for a
        worker, ``POST /studies`` is refused up front with a 503 carrying
        a ``Retry-After`` header (``retry_after_s``) instead of letting
        the backlog grow without bound.  ``None`` (default): never shed.
    retry_after_s:
        The ``Retry-After`` value (seconds) a shed submission receives.
    """

    def __init__(
        self,
        manager: JobManager,
        allowed_factory_prefixes: Optional[Sequence[str]] = ("repro.",),
        max_body_bytes: int = MAX_BODY_BYTES,
        max_queue_depth: Optional[int] = None,
        retry_after_s: float = 1.0,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be positive, got {retry_after_s}"
            )
        self.manager = manager
        self.allowed_factory_prefixes = allowed_factory_prefixes
        self.max_body_bytes = max_body_bytes
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._requests: Dict[str, Dict[str, int]] = {}
        self._shed_count = 0

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def handle(
        self, method: str, target: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, Any]]:
        """Handle one request; returns ``(status, JSON-safe payload)``.

        ``target`` is the request target (path plus optional query
        string).  Never raises: every failure maps to a status code and an
        ``{"error": ...}`` payload.
        """
        status, payload, _headers = self.handle_request(method, target, body)
        if isinstance(payload, _RawJSON):
            payload = json.loads(payload)
        return status, payload

    def handle_request(
        self, method: str, target: str, body: bytes = b""
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        """Like :meth:`handle`, plus the extra response headers.

        The third element carries response headers beyond Content-Type —
        today that is ``Retry-After`` on shed submissions (503 when the
        queue is past ``max_queue_depth``).  Unlike :meth:`handle`, a full
        ``GET /studies/{id}/result`` payload comes back as the stored
        canonical JSON text (a ``str``), not decoded into a dict.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        route, status, payload, headers = self._dispatch(method, path, query, body)
        self._count_request(method, route, status)
        return status, payload, headers

    def _dispatch(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Tuple[str, int, Union[Dict[str, Any], str], Dict[str, str]]:
        # Resolve the route *template* before handling: the request
        # counters must key on '/studies/{id}', never the raw path, or a
        # long-running server leaks one counter entry per distinct path
        # probed (404 scans, per-job polling).  Unmatched paths share one
        # 'unknown' bucket.
        parts = [part for part in path.split("/") if part]
        route = "unknown"
        try:
            if parts == ["studies"]:
                route = "/studies"
                self._require_method(method, "POST")
                return (route, *self._post_study(body), {})
            if len(parts) == 2 and parts[0] == "studies":
                route = "/studies/{id}"
                self._require_method(method, "GET")
                return (route, *self._get_study(parts[1]), {})
            if len(parts) == 3 and parts[0] == "studies" and parts[2] == "result":
                route = "/studies/{id}/result"
                self._require_method(method, "GET")
                return (route, *self._get_study_result(parts[1], query), {})
            if parts == ["results"]:
                route = "/results"
                self._require_method(method, "GET")
                return (route, *self._get_results(query), {})
            if parts == ["healthz"]:
                route = "/healthz"
                self._require_method(method, "GET")
                return (route, *self._get_healthz(), {})
            if parts == ["metrics"]:
                route = "/metrics"
                self._require_method(method, "GET")
                return (route, *self._get_metrics(), {})
            raise _HTTPError(
                404,
                f"unknown route {path!r}; see POST /studies, GET /studies/{{id}}, "
                "GET /studies/{id}/result, GET /results, GET /healthz, "
                "GET /metrics",
            )
        except _HTTPError as error:
            return route, error.status, {"error": error.message}, error.headers
        except Exception as error:  # noqa: BLE001 — no tracebacks on the wire
            return (
                route,
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
                {},
            )

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"method {method} not allowed; use {expected}")

    def _count_request(self, method: str, route: str, status: int) -> None:
        key = f"{method} {route}"
        with self._lock:
            self._requests.setdefault(key, {})
            self._requests[key][str(status)] = (
                self._requests[key].get(str(status), 0) + 1
            )

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #

    def _post_study(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if (
            self.max_queue_depth is not None
            and self.manager.queue_depth >= self.max_queue_depth
        ):
            # Shed before parsing anything: a saturated service should
            # spend no cycles on work it is about to refuse.  Honest
            # clients back off by the Retry-After header (ServiceClient
            # honors it automatically).
            with self._lock:
                self._shed_count += 1
            raise _HTTPError(
                503,
                f"queue depth {self.manager.queue_depth} is at the "
                f"{self.max_queue_depth}-job limit; retry after "
                f"{self.retry_after_s:g}s",
                headers={"Retry-After": f"{self.retry_after_s:g}"},
            )
        if len(body) > self.max_body_bytes:
            raise _HTTPError(
                413,
                f"request body of {len(body)} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(
                400, f"request body is not valid JSON: {error}"
            ) from None
        try:
            spec = spec_from_dict(
                payload, allowed_factory_prefixes=self.allowed_factory_prefixes
            )
        except SpecDecodeError as error:
            raise _HTTPError(400, f"invalid spec: {error}") from None
        try:
            view = self.manager.submit(spec)
        except ServiceClosed as error:
            raise _HTTPError(503, str(error)) from None
        status = 200 if view.cached else 202
        return status, {
            "id": view.id,
            "state": view.state,
            "cached": view.cached,
            "location": f"/studies/{view.id}",
        }

    def _get_study(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            view = self.manager.status(job_id)
        except UnknownJob as error:
            raise _HTTPError(404, str(error.args[0])) from None
        return 200, view.to_dict()

    def _get_study_result(
        self, job_id: str, query: Dict[str, str]
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        fields = self._parse_fields(query)
        self._reject_unknown_query(query, {"fields"})
        try:
            if fields is None:
                # The whole result: the store's validated canonical text,
                # byte-equal to json.dumps(to_jsonable(), sort_keys=True).
                return 200, _RawJSON(self.manager.result_json(job_id))
            result = self.manager.result(job_id)
        except UnknownJob as error:
            raise _HTTPError(404, str(error.args[0])) from None
        except JobNotDone as error:
            if error.state == "failed":
                raise _HTTPError(409, f"job failed: {error.error}") from None
            if error.error and "evicted" in error.error:
                raise _HTTPError(410, error.error) from None
            raise _HTTPError(
                409,
                f"job is {error.state}; poll GET /studies/{job_id} until it "
                "is done",
            ) from None
        return 200, self._render_result(result.to_jsonable(), fields)

    def _get_results(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        fields = self._parse_fields(query)
        kind = query.get("kind") or None
        limit = self._parse_int(query, "limit", default=50, minimum=0)
        offset = self._parse_int(query, "offset", default=0, minimum=0)
        self._reject_unknown_query(query, {"fields", "kind", "limit", "offset"})
        if limit > MAX_PAGE_LIMIT:
            raise _HTTPError(
                400, f"limit {limit} exceeds the page ceiling of {MAX_PAGE_LIMIT}"
            )
        page = ResultSet.from_store(
            self.manager.store, kind=kind, limit=limit, offset=offset
        )
        # Store.count never deserializes what it doesn't have to (len()
        # when unfiltered, SQL/in-memory kind counts where available) —
        # 'total' must not cost O(store) JSON parses per page.
        total = self.manager.store.count(kind=kind)
        return 200, {
            "results": [
                self._render_result(result.to_jsonable(), fields) for result in page
            ],
            "kind": kind,
            "limit": limit,
            "offset": offset,
            "returned": len(page),
            "total": total,
        }

    def _get_healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "workers": self.manager.worker_count,
            "queue_depth": self.manager.queue_depth,
        }

    def _get_metrics(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            requests = {
                route: dict(statuses) for route, statuses in self._requests.items()
            }
            shed = self._shed_count
        payload: Dict[str, Any] = {
            "requests": requests,
            "shed_submissions": shed,
            "jobs": self.manager.metrics(),
        }
        # A resilience-wrapped store (ResilientStore) exposes breaker state
        # and degradation counters; surface them so operators can see
        # store trouble from the same endpoint as everything else.
        store_metrics = getattr(self.manager.store, "metrics", None)
        if callable(store_metrics):
            store_payload = store_metrics()
            payload["store"] = store_payload
            payload["store_degraded"] = store_payload.get("degraded", 0)
        return 200, payload

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _parse_fields(query: Dict[str, str]) -> Optional[Tuple[str, ...]]:
        raw = query.get("fields")
        if raw is None or raw == "":
            return None
        fields = tuple(name.strip() for name in raw.split(",") if name.strip())
        unknown = sorted(set(fields) - set(RESULT_SECTIONS))
        if unknown:
            raise _HTTPError(
                400,
                f"unknown result fields {unknown}; selectable sections: "
                f"{sorted(RESULT_SECTIONS)}",
            )
        return fields

    @staticmethod
    def _parse_int(
        query: Dict[str, str], name: str, default: int, minimum: int
    ) -> int:
        raw = query.get(name)
        if raw is None or raw == "":
            return default
        try:
            value = int(raw)
        except ValueError:
            raise _HTTPError(
                400, f"query parameter {name}={raw!r} is not an integer"
            ) from None
        if value < minimum:
            raise _HTTPError(400, f"query parameter {name} must be >= {minimum}")
        return value

    @staticmethod
    def _reject_unknown_query(query: Dict[str, str], known: set) -> None:
        unknown = sorted(set(query) - known)
        if unknown:
            raise _HTTPError(
                400,
                f"unknown query parameters {unknown}; supported: {sorted(known)}",
            )

    @staticmethod
    def _render_result(
        payload: Dict[str, Any], fields: Optional[Tuple[str, ...]]
    ) -> Dict[str, Any]:
        if fields is None:
            return payload
        selected = {name: payload[name] for name in _ALWAYS_FIELDS if name in payload}
        for name in fields:
            if name in payload:
                selected[name] = payload[name]
        return selected


# ---------------------------------------------------------------------- #
# the HTTP shell
# ---------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    """Thin socket shell around :meth:`StudyService.handle`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, a keep-alive
    # client's delayed ACK holds the body back for about 40 ms.
    disable_nagle_algorithm = True

    @property
    def service(self) -> StudyService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # route/status counters live in /metrics; stay quiet on stderr

    def _respond(
        self,
        status: int,
        payload: Union[Dict[str, Any], str],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, _RawJSON):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        status, payload, headers = self.service.handle_request("GET", self.path)
        self._respond(status, payload, headers)

    def do_POST(self) -> None:  # noqa: N802
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._respond(411, {"error": "POST requires a Content-Length header"})
            return
        try:
            length = int(length_header)
        except ValueError:
            self._respond(400, {"error": "Content-Length is not an integer"})
            return
        if length > self.service.max_body_bytes:
            # Refuse before reading; the client gets the byte budget.
            self._respond(
                413,
                {
                    "error": (
                        f"request body of {length} bytes exceeds the "
                        f"{self.service.max_body_bytes}-byte limit"
                    )
                },
            )
            self.close_connection = True
            return
        body = self.rfile.read(length)
        status, payload, headers = self.service.handle_request(
            "POST", self.path, body
        )
        self._respond(status, payload, headers)


class StudyServer:
    """A running study-submission server (background thread, owned port).

    ``port=0`` (default) binds an ephemeral port — read :attr:`url` after
    construction.  ``close()`` stops the HTTP listener and shuts the job
    manager down (draining by default).
    """

    def __init__(
        self,
        service: StudyService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self, drain: bool = True) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        self.service.manager.close(drain=drain)

    def __enter__(self) -> "StudyServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve(
    store: Any = None,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    allowed_factory_prefixes: Optional[Sequence[str]] = ("repro.",),
    max_queue_depth: Optional[int] = None,
    retry_after_s: float = 1.0,
    resilient: bool = False,
    **manager_kwargs: Any,
) -> StudyServer:
    """One-call server: build the manager + service + HTTP listener.

    ``store`` is anything :class:`~repro.api.session.Session` accepts
    (a Store instance, a directory path, or None for in-memory);
    ``resilient=True`` wraps it in a default-policy
    :class:`~repro.api.stores.ResilientStore` so storage trouble degrades
    the cache instead of failing studies; ``max_queue_depth`` /
    ``retry_after_s`` configure submission shedding (see
    :class:`StudyService`); ``manager_kwargs`` pass through to
    :class:`~repro.service.jobs.JobManager` (``job_timeout_s``,
    ``max_retries``, ``journal``, ...).
    """
    from repro.api.stores import MemoryStore, ResilientStore, resolve_store

    resolved = MemoryStore() if store is None else resolve_store(store)
    if resilient and not isinstance(resolved, ResilientStore):
        resolved = ResilientStore(resolved)
    manager = JobManager(store=resolved, workers=workers, **manager_kwargs)
    service = StudyService(
        manager,
        allowed_factory_prefixes=allowed_factory_prefixes,
        max_queue_depth=max_queue_depth,
        retry_after_s=retry_after_s,
    )
    return StudyServer(service, host=host, port=port)
