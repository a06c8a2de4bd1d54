"""The ``service_mix`` workload: an open-loop client against ``serve()``.

The server runs in a child process (``server.py``) over a ``SQLiteStore``
that set-up pre-warms with the Fig. 11 result, so the server's interpreter
lock is apart from the generator's.  The generator is one process with
``CONNECTIONS`` client slots, each holding at most one open connection.
Client flows are due at a fixed rate (``FLOWS_PER_S``), whether or not
earlier ones have finished; each flow is what one user does:

1. warm ``POST /studies`` of the Fig. 11 spec (answered from the job record);
2. ``GET /studies/{id}/result`` of it (the ~425 KB Result JSON);
3. cold ``POST /studies`` of a distinct series-chain ``DCOp`` drawn from
   the seed, polled on the same connection until the job is done;
4. ``GET /studies/{id}/result`` of the cold job.

Every latency runs from when the request was due: the flow's scheduled
time for step 1, the end of the previous step after that.  The cold-job
latency ends at the job's own ``finished_s`` stamp, so the poll interval
does not quantize it; polls go through the flow's slot, so they count
against the connection limit.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from workloads import FIG11_FACTORY, REFERENCE_MS, Workload, reference_ms

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"

#: Open-loop arrival rate of client flows (four requests each, plus polls):
#: about 45 % of the closed-loop capacity measured on the defining 2-CPU
#: host (20.8-23.0 flows/s), chosen near half of it (see README.md).
FLOWS_PER_S = 10.0
#: Client slots, i.e. the most connections open at once (the CPU count of
#: the 2-CPU container the benchmark was defined on).
CONNECTIONS = 2
#: A request slower than this, from its due time, counts as failed (a
#: chosen limit, about 5x the closed-loop flow service time).
LATENCY_LIMIT_MS = 500.0
#: Status poll interval of a cold job.
POLL_S = 0.002
#: Least time before a flow is due in which a slot times the host-speed
#: reference (the loop takes 5-10 ms on the defining host).
REFERENCE_GAP_S = 0.02
#: Untimed flows run during set-up (one per connection).
WARMUP_FLOWS = CONNECTIONS
#: Seconds to wait for the server to start or stop.
SERVER_TIMEOUT_S = 60.0

SERVER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")


def tail(values: List[float]):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are fewer than 11 samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    count = len(ordered)
    return 100.0 * (count - 10) / count, ordered[count - 11]


class Connection:
    """One client slot: at most one open connection at a time.

    Each request opens its own connection and closes it after the response
    (``Connection: close``), as ``ServiceClient``'s ``urllib`` does.  A
    keep-alive connection is not used on purpose: the server writes the
    headers and the body of a response separately, and on a reused
    connection the second write waits for the client's delayed ACK
    (Nagle), about 40 ms per response, which would hide every server-side
    layer behind a kernel timer.
    """

    def __init__(self, host: str, port: int, gauge: Dict[str, int], lock: threading.Lock):
        self.host, self.port = host, port
        self.gauge, self.lock = gauge, lock
        self.rtts_ms: List[float] = []

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        with self.lock:
            self.gauge["live"] += 1
            self.gauge["peak"] = max(self.gauge["peak"], self.gauge["live"])
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
            with self.lock:
                self.gauge["live"] -= 1
        self.rtts_ms.append((time.perf_counter() - start) * 1e3)
        return response.status, data


class ServiceMix(Workload):
    """Open-loop client flows against the study service (see module doc)."""

    name = "service_mix"
    expected_backend = "dense"
    traced_here = False

    def setup(self) -> None:
        from repro.api import CircuitSpec, Session, Transient
        from repro.api.codec import spec_to_dict
        from repro.api.hashing import spec_hash
        from repro.api.stores import SQLiteStore
        from repro.circuits.sizing import default_switch_model

        default_switch_model()
        self.session = Session(store=None)
        fig11 = Transient(circuit=CircuitSpec(FIG11_FACTORY, params={}), timestep_s=1e-9)
        result = self.session.run(fig11)
        self.fig11_id = spec_hash(fig11)
        self.fig11_wire = json.dumps(spec_to_dict(fig11)).encode("utf-8")
        self.fig11_digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
        store_path = os.path.join(os.getcwd(), f"service-{os.getpid()}.sqlite")
        store = SQLiteStore(store_path)
        store.put(self.fig11_id, result)
        store.close()

        command = [sys.executable, SERVER_SCRIPT, "--store", store_path]
        if self.spans_path:
            command += ["--trace", self.spans_path]
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self.server.stdout.readline().split()
        if ready[:1] != ["READY"]:
            raise RuntimeError(f"the service did not start: {ready!r}")
        host_port = ready[1].split("//", 1)[1]
        host, port = host_port.rsplit(":", 1)
        self.gauge = {"live": 0, "peak": 0}
        lock = threading.Lock()
        self.connections = [
            Connection(host, int(port), self.gauge, lock) for _ in range(CONNECTIONS)
        ]

        self.specs = self._cold_specs()
        self.flows: List[Dict[str, Any]] = []
        offset = time.time() - time.perf_counter()
        warm = [
            self._flow(self.connections[i], i, time.perf_counter(), offset)
            for i in range(WARMUP_FLOWS)
        ]
        # Set-up pays one-time costs (the server's first build of the
        # switch model), so only statuses and bodies are checked here.
        if not all(flow.get("status_ok") for flow in warm):
            raise RuntimeError(f"warm-up flows failed: {warm!r}")
        self.digest = hashlib.sha256(
            (self.fig11_digest + "".join(flow["cold_digest"] for flow in warm)).encode()
        ).hexdigest()

    def _cold_specs(self):
        """Distinct series-chain DC specs from the seed (a lazy, growing list)."""
        from repro.api import CircuitSpec, DCOp
        from repro.api.codec import spec_to_dict

        rng = random.Random(self.seed)
        specs = []

        def spec_at(index: int):
            while len(specs) <= index:
                spec = DCOp(
                    circuit=CircuitSpec(CHAIN_FACTORY, params={"num_switches": rng.randint(2, 8)}),
                    gmin=1e-12 * (1.0 + rng.random()),
                )
                specs.append((spec, json.dumps(spec_to_dict(spec)).encode("utf-8")))
            return specs[index]

        return spec_at

    # -- one client flow ------------------------------------------------ #

    def _flow(self, conn: Connection, index: int, due: float, wall_offset: float) -> Dict[str, Any]:
        """Run flow ``index`` due at ``due`` (perf_counter seconds)."""
        spec, wire = self.specs(index)
        flow: Dict[str, Any] = {"index": index, "ok": False, "good": 0}
        start = time.perf_counter()
        flow["lag_ms"] = (start - due) * 1e3
        try:
            status, body = conn.request("POST", "/studies", self.fig11_wire)
            submitted = time.perf_counter()
            flow["submit_ms"] = (submitted - due) * 1e3
            submit_ok = status == 200 and json.loads(body).get("cached") is True

            status, body = conn.request("GET", f"/studies/{self.fig11_id}/result")
            fetched = time.perf_counter()
            flow["result_ms"] = (fetched - submitted) * 1e3
            flow["result_kb"] = len(body) / 1e3
            result_ok = status == 200 and hashlib.sha256(body).hexdigest() == self.fig11_digest

            status, body = conn.request("POST", "/studies", wire)
            job_id = json.loads(body).get("id") if status in (200, 202) else None
            view: Dict[str, Any] = {}
            while job_id is not None:
                poll_status, poll_body = conn.request("GET", f"/studies/{job_id}")
                view = json.loads(poll_body) if poll_status == 200 else {"state": "failed"}
                if view.get("state") in ("done", "failed"):
                    break
                time.sleep(POLL_S)
            cold_ok = view.get("state") == "done"
            if cold_ok:
                flow["cold_ms"] = (view["finished_s"] - (fetched + wall_offset)) * 1e3
                flow["queue_wait_ms"] = (view["started_s"] - view["created_s"]) * 1e3
                flow["compute_ms"] = (view["finished_s"] - view["started_s"]) * 1e3
            polled = time.perf_counter()

            status, body = conn.request("GET", f"/studies/{job_id}/result")
            done = time.perf_counter()
            flow["cold_get_ms"] = (done - polled) * 1e3
            flow["cold_digest"] = hashlib.sha256(body).hexdigest()
            cold_get_ok = status == 200
            flow["flow_ms"] = (done - due) * 1e3
        except (OSError, http.client.HTTPException, ValueError) as error:
            flow["error"] = f"{type(error).__name__}: {error}"
            return flow
        flow["status_ok"] = submit_ok and result_ok and cold_ok and cold_get_ok
        limit = LATENCY_LIMIT_MS
        verdicts = [
            submit_ok and flow["submit_ms"] <= limit,
            result_ok and flow["result_ms"] <= limit,
            cold_ok and flow["cold_ms"] <= limit,
            cold_get_ok and flow["cold_get_ms"] <= limit,
        ]
        flow["good"] = sum(verdicts)
        flow["ok"] = all(verdicts)
        return flow

    # -- the timed window ----------------------------------------------- #

    def measure(self, seconds: float) -> Dict[str, Any]:
        count = max(1, int(seconds * FLOWS_PER_S))
        for index in range(WARMUP_FLOWS, WARMUP_FLOWS + count):
            self.specs(index)
        for conn in self.connections:
            conn.rtts_ms.clear()
        self._command("window")
        next_index = [0]
        lock = threading.Lock()
        first_speed = REFERENCE_MS / reference_ms()
        wall_offset = time.time() - time.perf_counter()
        start = time.perf_counter()
        flows: List[Dict[str, Any]] = []

        def client(conn: Connection) -> None:
            speed = first_speed
            while True:
                with lock:
                    k = next_index[0]
                    if k >= count:
                        return
                    next_index[0] += 1
                due = start + (k + 1) / FLOWS_PER_S
                # The slot times the host-speed reference while it waits for
                # the flow to be due, never when that would make it late.
                if due - time.perf_counter() > REFERENCE_GAP_S:
                    speed = REFERENCE_MS / reference_ms()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                flow = self._flow(conn, WARMUP_FLOWS + k, due, wall_offset)
                flow["speed"] = speed
                flows.append(flow)

        threads = [threading.Thread(target=client, args=(conn,)) for conn in self.connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_s = time.perf_counter() - start
        flows.sort(key=lambda flow: flow["index"])
        self.flows = flows
        attempted = 4 * count
        good = sum(flow["good"] for flow in flows)
        latencies = [flow.get("flow_ms", float("inf")) / 1e3 for flow in flows]
        return {
            "latencies_s": latencies,
            "scaled_s": [value * flow["speed"] for value, flow in zip(latencies, flows)],
            "attempted": attempted,
            "failed": attempted - good,
            "goodput_per_s": good / window_s,
        }

    # -- after the window ------------------------------------------------ #

    def _command(self, line: str) -> None:
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()

    def _stop_server(self, operations: int) -> Dict[str, Any]:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return {}
        try:
            self._command(f"stop {operations}")
            server.stdin.close()
            line = server.stdout.readline()
            server.wait(timeout=SERVER_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            server.kill()
            server.wait()
            return {}
        finally:
            server.stdout.close()
        return json.loads(line) if line.strip() else {}

    def verify(self) -> None:
        server = self._stop_server(len(self.flows))
        self.server_backends = server.get("backends", {})
        self.server_rss_mb = server.get("peak_rss_mb")
        mismatched = 0
        for flow in self.flows:
            if "cold_digest" not in flow:
                continue
            spec, _ = self.specs(flow["index"])
            local = self.session.run(spec).to_json().encode("utf-8")
            expected = hashlib.sha256(local).hexdigest()
            if expected != flow["cold_digest"]:
                mismatched += 1
        flows = self.flows
        rtts = [rtt for conn in self.connections for rtt in conn.rtts_ms]
        handle_count = server.get("handle_count", 0)
        layers = dict(server.get("layers", {}))
        layers.update(
            {
                "service.http_ms": (
                    (sum(rtts) - server.get("handle_ms", 0.0)) / len(rtts)
                    if rtts and handle_count
                    else 0.0
                ),
                "jobs.queue_wait_ms": _median(flows, "queue_wait_ms"),
                "jobs.compute_ms": _median(flows, "compute_ms"),
                "loadgen.lag_ms": _median(flows, "lag_ms"),
                "results.payload_kb": _median(flows, "result_kb"),
            }
        )
        self.client_layers = layers
        self.counts = {
            "flows": len(flows),
            "requests": len(rtts),
            "cold_jobs": sum(1 for flow in flows if "cold_ms" in flow),
            "server_handled_requests": handle_count,
        }
        answered = sum(1 for flow in flows if flow.get("status_ok"))
        self.checks = {
            "flows_ok": f"{sum(flow['ok'] for flow in flows)}/{len(flows)}",
            # 2xx, warm POST answered as cached, Fig. 11 body sha256 equal
            # to the local run, cold job done: a wrong answer, not a slow one.
            "flows_answered_correctly": f"{answered}/{len(flows)}",
            "fig11_body_sha256": self.fig11_digest[:16],
            "cold_bodies_match_local_run": mismatched == 0,
            "client_peak_connections": self.gauge["peak"],
            "connection_limit": CONNECTIONS,
        }
        self.checks["ok"] = bool(
            server
            and flows
            and answered == len(flows)
            and mismatched == 0
            and self.gauge["peak"] <= CONNECTIONS
        )
        self.failed_checks = mismatched

    def report(self, latencies_s):
        figures: Dict[str, Any] = {}
        for key in ("submit", "result", "cold"):
            values = [flow[f"{key}_ms"] for flow in self.flows if f"{key}_ms" in flow]
            if values:
                figures[f"{key}_p50_ms"] = (statistics.median(values), "ms")
            if key != "cold" and tail(values):
                pct, value = tail(values)
                figures[f"{key}_tail_ms"] = (value, f"ms (p{pct:.0f}, n={len(values)})")
        figures["offered_flows_per_s"] = (FLOWS_PER_S, "1/s")
        figures["lag_max_ms"] = (max(flow.get("lag_ms", 0.0) for flow in self.flows), "ms")
        return figures

    def selected_backends(self, local):
        return self.server_backends

    def peak_rss_mb(self) -> float:
        return float(self.server_rss_mb or 0.0)

    def layers(self, tracer, operations):
        return self.client_layers

    def close(self) -> None:
        self._stop_server(0)
        store = os.path.join(os.getcwd(), f"service-{os.getpid()}.sqlite")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store + suffix):
                os.remove(store + suffix)


def _median(flows: List[Dict[str, Any]], key: str) -> float:
    values = [flow[key] for flow in flows if key in flow]
    return statistics.median(values) if values else 0.0
