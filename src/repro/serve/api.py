"""The HTTP JSON API — stdlib only, no new runtime dependencies.

Routes (all JSON in, JSON out):

* ``POST /jobs`` — submit one job (``{"job": {...}, "priority": 0}``)
  or a batch (``{"jobs": [{...}, ...]}``).  Returns 202 with one entry
  per job: ``{"id", "state", "deduped"}``.  A deduplicated submission
  returns the *existing* record's id — both clients poll the same job.
  Within one batch, a spec named again answers with the batch's first
  record for it, ``deduped: true``, whatever state that record has
  reached (a slot may finish it before the repeat is entered); across
  requests, only an in-flight record is deduplicated onto.
  429 when the circuit breaker has the spec quarantined, 503 while
  draining, 400 for malformed specs.
* ``GET /jobs/<id>`` — full record: state, attempts, timestamps, typed
  error, and (when done) the result + summary metrics.
* ``GET /jobs`` — newest-first summaries (no result payloads).
* ``GET /healthz`` — liveness + drain state + queue gauges.
* ``GET /metrics`` — the service's full counter tree (see
  :meth:`repro.serve.service.SimulationService.metrics`).

Adaptive searches are client-side: :func:`repro.serve.orchestrate.run_halving`
drives their rounds through ``POST /jobs`` and ``GET /jobs/<id>``.

Submissions are **admission controlled** when the service has a
``max_queue_depth``: beyond it, ``POST /jobs`` answers 429
(``code: "backpressure"``) with a ``Retry-After`` header derived from
the observed drain rate.  A ``wire_version`` mismatch in any job spec
or cluster call answers 409 (``code: "wire-version"``).

Cluster routes (worker agents only; see :mod:`repro.serve.cluster`):

* ``POST /cluster/register`` — ``{"node", "capacity", "wire_version"}``;
  returns lease/heartbeat parameters and whether the result cache is on.
* ``POST /cluster/lease`` — long-poll for a job lease (``{"node",
  "wait"}``).  200 with ``{"lease": {...}}`` or ``{"lease": null}``;
  404 ``code: "unknown-node"`` for unregistered peers (re-register);
  429 when the per-node breaker has the worker quarantined.
* ``POST /cluster/report`` — deliver a lease outcome (``{"node",
  "lease", "job_id", "result" | "failure"}``); ``{"accepted": false}``
  for stale leases (the job was reclaimed — not the worker's problem).
* ``POST /cluster/heartbeat`` — renew liveness + held leases.
* ``GET/PUT /cluster/cache/<digest>`` — get/put on the service's
  result cache, the one the local slots use (404 on miss; best-effort
  by design).  Agents only ``GET``: a job's report stores its result.

The server is a ``ThreadingHTTPServer``: handler threads only touch the
thread-safe service object, while simulations run in the service's own
worker slots.  :func:`run_server` adds the process envelope — SIGTERM /
SIGINT trigger a graceful drain (finish running jobs, persist pending)
before the process exits; see ``docs/service.md``.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.serve.cluster.coordinator import (
    AdmissionError,
    NodeQuarantined,
    UnknownNodeError,
)
from repro.serve.jobs import WIRE_VERSION, WireVersionMismatch, job_from_wire
from repro.serve.service import (
    QuarantinedError,
    ServiceConfig,
    SimulationService,
)

#: default TCP port; "BI" from Bingo on a phone keypad, roughly
DEFAULT_PORT = 8424

#: request bodies larger than this are rejected outright (a batch of
#: thousands of fully custom systems still fits comfortably)
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; the service instance hangs off the server object."""

    server_version = "bingo-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # the client went away mid-response (a worker shut down while
            # its lease long-poll was being answered) — nothing to tell it
            self.close_connection = True

    def _error(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        **extra,
    ) -> None:
        self._send_json(status, dict({"error": message}, **extra), headers)

    def _retry_after_headers(self, seconds: float) -> Dict[str, str]:
        """HTTP Retry-After wants integer seconds; never advertise 0."""
        return {"Retry-After": str(max(1, int(round(seconds))))}

    def _read_body(self) -> Optional[Dict[str, Any]]:
        # On each rejection below the body stays unread, so the
        # connection cannot be reused: its bytes would parse as the next
        # request.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            self._error(400, "bad Content-Length")
            return None
        if length <= 0:
            self.close_connection = True
            self._error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._error(400, "body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "body must be a JSON object")
            return None
        return payload

    # -- GET ----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/metrics":
            self._send_json(200, self.service.metrics())
        elif path == "/jobs":
            records = self.service.queue.records()
            self._send_json(
                200,
                {
                    "jobs": [
                        record.to_dict(include_result=False)
                        for record in records
                    ]
                },
            )
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.service.get(job_id)
            if record is None:
                self._error(404, f"no such job: {job_id}")
            else:
                self._send_json(200, record.to_dict())
        elif path.startswith("/cluster/cache/"):
            self._get_cluster_cache(path[len("/cluster/cache/"):])
        else:
            self._error(404, f"no such route: {path}")

    # -- POST ---------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            self._post_jobs()
        elif path == "/cluster/register":
            self._post_cluster_register()
        elif path == "/cluster/lease":
            self._post_cluster_lease()
        elif path == "/cluster/report":
            self._post_cluster_report()
        elif path == "/cluster/heartbeat":
            self._post_cluster_heartbeat()
        else:
            self._error(404, f"no such route: {path}")

    # -- PUT ----------------------------------------------------------------
    def do_PUT(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/cluster/cache/"):
            self._put_cluster_cache(path[len("/cluster/cache/"):])
        else:
            self._error(404, f"no such route: {path}")

    def _post_jobs(self) -> None:
        payload = self._read_body()
        if payload is None:
            return
        if "jobs" in payload:
            specs = payload["jobs"]
            if not isinstance(specs, list) or not specs:
                self._error(400, "'jobs' must be a non-empty array")
                return
        elif "job" in payload:
            specs = [payload["job"]]
        else:
            self._error(400, "body needs 'job' (object) or 'jobs' (array)")
            return
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            self._error(400, "'priority' must be an integer")
            return

        try:
            jobs = [job_from_wire(spec) for spec in specs]
        except WireVersionMismatch as exc:
            self._error(409, str(exc), code="wire-version", ours=exc.ours)
            return
        except (ValueError, TypeError) as exc:
            self._error(400, f"bad job spec: {exc}")
            return

        accepted = []
        try:
            for record, deduped in self.service.submit_batch(jobs, priority):
                accepted.append(
                    {
                        "id": record.id,
                        "state": record.state.value,
                        "deduped": deduped,
                        "digest": record.digest,
                    }
                )
        except QuarantinedError as exc:
            self._error(
                429,
                str(exc),
                headers=self._retry_after_headers(exc.retry_after),
                code="quarantined",
                retry_after=round(exc.retry_after, 3),
                accepted=accepted,
            )
            return
        except AdmissionError as exc:
            self._error(
                429,
                str(exc),
                headers=self._retry_after_headers(exc.retry_after),
                code="backpressure",
                retry_after=round(exc.retry_after, 3),
                queue_depth=exc.depth,
                accepted=accepted,
            )
            return
        except RuntimeError as exc:  # queue closed: draining
            self._error(503, str(exc), accepted=accepted)
            return
        self._send_json(202, {"jobs": accepted})

    # -- cluster ------------------------------------------------------------
    def _cluster_payload(self) -> Optional[Dict[str, Any]]:
        """Read + version-check a cluster call body; None = already
        answered.  An absent ``wire_version`` is read as the current
        one; a *different* one is a 409 — mixed-version clusters must
        fail fast and loudly."""
        payload = self._read_body()
        if payload is None:
            return None
        theirs = payload.get("wire_version", WIRE_VERSION)
        if theirs != WIRE_VERSION:
            self._error(
                409,
                str(WireVersionMismatch(theirs)),
                code="wire-version",
                ours=WIRE_VERSION,
            )
            return None
        node = payload.get("node")
        if not node or not isinstance(node, str):
            self._error(400, "cluster calls need a 'node' id (string)")
            return None
        return payload

    def _post_cluster_register(self) -> None:
        payload = self._cluster_payload()
        if payload is None:
            return
        capacity = payload.get("capacity", 1)
        if not isinstance(capacity, int) or capacity < 1:
            self._error(400, "'capacity' must be a positive integer")
            return
        info = self.service.cluster.register(payload["node"], capacity)
        self._send_json(200, dict(info, wire_version=WIRE_VERSION))

    def _post_cluster_lease(self) -> None:
        payload = self._cluster_payload()
        if payload is None:
            return
        try:
            wait = float(payload.get("wait", 0.0))
        except (TypeError, ValueError):
            self._error(400, "'wait' must be a number")
            return
        try:
            lease = self.service.cluster.lease(payload["node"], wait=wait)
        except UnknownNodeError as exc:
            self._error(404, str(exc), code="unknown-node")
            return
        except NodeQuarantined as exc:
            self._error(
                429,
                str(exc),
                headers=self._retry_after_headers(exc.retry_after),
                code="node-quarantined",
                retry_after=round(exc.retry_after, 3),
            )
            return
        self._send_json(200, {"lease": lease})

    def _post_cluster_report(self) -> None:
        payload = self._cluster_payload()
        if payload is None:
            return
        lease_id = payload.get("lease")
        job_id = payload.get("job_id")
        if not isinstance(lease_id, str) or not isinstance(job_id, str):
            self._error(400, "report needs 'lease' and 'job_id' (strings)")
            return
        try:
            accepted = self.service.cluster.report(
                payload["node"],
                lease_id,
                job_id,
                result=payload.get("result"),
                failure=payload.get("failure"),
            )
        except UnknownNodeError as exc:
            self._error(404, str(exc), code="unknown-node")
            return
        except (ValueError, TypeError) as exc:
            self._error(400, f"bad report: {exc}")
            return
        self._send_json(200, {"accepted": accepted})

    def _post_cluster_heartbeat(self) -> None:
        payload = self._cluster_payload()
        if payload is None:
            return
        leases = payload.get("leases", [])
        if not isinstance(leases, list):
            self._error(400, "'leases' must be an array of lease ids")
            return
        try:
            inflight = int(payload.get("inflight", 0))
        except (TypeError, ValueError):
            self._error(400, "'inflight' must be an integer")
            return
        try:
            renewed = self.service.cluster.heartbeat(
                payload["node"], inflight=inflight,
                leases=[str(lease) for lease in leases],
            )
        except UnknownNodeError as exc:
            self._error(404, str(exc), code="unknown-node")
            return
        self._send_json(200, {"renewed": renewed})

    def _get_cluster_cache(self, digest: str) -> None:
        try:
            entry = self.service.cluster.cache_get(digest)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if entry is None:
            self._error(404, f"cache miss for {digest[:12]}", code="miss")
            return
        self._send_json(200, {"digest": digest, "result": entry})

    def _put_cluster_cache(self, digest: str) -> None:
        payload = self._read_body()
        if payload is None:
            return
        try:
            stored = self.service.cluster.cache_put(
                digest, payload.get("result")
            )
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
            return
        self._send_json(200, {"stored": stored})


def make_server(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``service`` (not yet serving)."""
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def run_server(
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = True,
    install_signals: bool = True,
    ready: Optional[threading.Event] = None,
) -> Tuple[SimulationService, int]:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    Blocks the calling thread.  Returns ``(service, persisted_count)``
    after the drain so embedding callers (tests, the smoke tool) can
    assert on the shutdown.  ``ready`` is set once the socket is
    listening and the slots are started.
    """
    service = SimulationService(config)
    server = make_server(service, host=host, port=port, verbose=verbose)
    stop = threading.Event()

    if install_signals:
        def _request_stop(signum, frame):  # pragma: no cover - signal path
            stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    service.start()
    serve_thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    serve_thread.start()
    if verbose:
        bound = server.server_address
        print(
            f"bingo-serve listening on http://{bound[0]}:{bound[1]} "
            f"({service.config.workers} workers, "
            f"timeout {service.config.job_timeout:g}s)",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    if verbose:
        print("bingo-serve draining: finishing running jobs...", flush=True)
    persisted = service.drain()
    server.shutdown()
    server.server_close()
    serve_thread.join(5.0)
    if verbose:
        print(
            f"bingo-serve drained cleanly ({persisted} pending job(s) "
            "persisted for restart)",
            flush=True,
        )
    return service, persisted
