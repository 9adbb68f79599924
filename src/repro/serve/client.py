"""A tiny urllib-based client for the simulation service.

No dependencies beyond the stdlib, mirroring the server.  Experiments
and sweeps use it to run against a warm daemon — shared result cache,
shared compiled traces — instead of cold-starting a process per batch:

    client = ServiceClient("http://127.0.0.1:8424")
    accepted = client.submit({"workload": "em3d", "prefetcher": "bingo",
                              "instructions": 20000, "warmup": 4000})
    record = client.wait(accepted["id"], timeout=120)
    print(record["summary"])

All methods raise :class:`ServiceError` (carrying the HTTP status and
the server's error body) on non-2xx responses, and the typed
:class:`ServiceUnavailable` (a ``ServiceError`` subclass) when the
daemon is unreachable — startup races against a daemon that has not
bound its socket yet are retried with bounded jittered backoff before
that surfaces (``connect_wait``), so ``tools/serve_smoke.py``-style
"start the daemon, immediately build a client" flows need no manual
polling loop.  Submissions honor the frontend's admission control: a
429 with ``code: "backpressure"`` is retried after the advertised
``Retry-After`` (jittered), up to ``backpressure_retries`` times.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.sim.executor import SimJob
from repro.serve.jobs import WIRE_VERSION, job_to_wire

#: states a poller can stop on (jobs and experiments alike)
_TERMINAL = ("done", "failed")


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str, body: Optional[dict] = None):
        self.status = status
        self.body = body or {}
        super().__init__(f"HTTP {status}: {message}")


class ServiceUnavailable(ServiceError):
    """The daemon is unreachable (refused, DNS failure, timeout).

    Subclasses :class:`ServiceError` so existing ``except (ServiceError,
    OSError)`` call sites keep working; ``status`` is reported as 503.
    """

    def __init__(self, url: str, cause: BaseException, attempts: int = 1):
        self.url = url
        self.cause = cause
        self.attempts = attempts
        super().__init__(
            503,
            f"service unreachable at {url} after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}",
        )


class WireVersionError(ServiceError):
    """The peer speaks a different job/lease wire format (HTTP 409).

    Deliberately loud: a mixed-version cluster corrupts results if it
    limps along, so nothing in this client retries a 409.
    """

    def __init__(self, status: int, message: str, body: Optional[dict] = None):
        super().__init__(status, message, body)


class ServiceClient:
    """Blocking JSON client for one service base URL.

    ``connect_wait`` > 0 makes the *first* request tolerate an unbound
    socket for that many seconds (jittered exponential backoff) before
    raising :class:`ServiceUnavailable` — enough to absorb the race
    between spawning a daemon and talking to it, without masking a
    daemon that is actually down.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        connect_wait: float = 0.0,
        backpressure_retries: int = 6,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_wait = max(0.0, connect_wait)
        self.backpressure_retries = max(0, backpressure_retries)
        self._connected = False
        # per-instance clock and sleep: tests substitute them on one
        # client without touching the process-wide ``time`` module
        self._monotonic = time.monotonic
        self._sleep = time.sleep

    @classmethod
    def connect(
        cls,
        base_url: str,
        timeout: float = 10.0,
        wait: float = 10.0,
        **kwargs,
    ) -> "ServiceClient":
        """A client whose liveness is *proven*: probes ``/healthz`` with
        bounded backoff and raises :class:`ServiceUnavailable` if the
        daemon never answers within ``wait`` seconds."""
        client = cls(base_url, timeout=timeout, connect_wait=wait, **kwargs)
        client.health()
        return client

    # -- transport ----------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One HTTP round-trip; retries only pre-connection transport
        errors, and only within the construction-time ``connect_wait``
        budget (after the first successful response the daemon has
        provably been up — later connection errors surface at once)."""
        deadline = (
            self._monotonic() + self.connect_wait
            if self.connect_wait > 0 and not self._connected
            else None
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, payload, timeout)
            except ServiceUnavailable as exc:
                now = self._monotonic()
                if deadline is None or now >= deadline:
                    raise ServiceUnavailable(
                        exc.url, exc.cause, attempts=attempt
                    ) from None
                delay = min(0.05 * (2 ** (attempt - 1)), 1.0)
                delay *= 1.0 + 0.25 * random.random()
                self._sleep(min(delay, max(0.0, deadline - now)))

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else self.timeout
            ) as resp:
                status = getattr(resp, "status", 200)
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except (ValueError, OSError):
                body = {}
            self._connected = True  # an HTTP answer proves the daemon is up
            message = body.get("error", exc.reason)
            if exc.code == 409 and body.get("code") == "wire-version":
                raise WireVersionError(exc.code, message, body) from None
            raise ServiceError(exc.code, message, body) from None
        except OSError as exc:
            # URLError (refused, DNS), socket.timeout, ConnectionError:
            # the daemon never answered — a typed transport error, not a
            # raw urllib traceback
            cause = getattr(exc, "reason", None)
            if not isinstance(cause, BaseException):
                cause = exc
            raise ServiceUnavailable(url, cause) from None
        self._connected = True
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            # A 2xx with a non-JSON body (a proxy interposed, a torn
            # response) is a *service* problem — surface it as the same
            # typed error every other transport failure uses, not a bare
            # ValueError from the JSON parser.
            snippet = raw[:200].decode("utf-8", "replace")
            raise ServiceError(
                status, f"non-JSON response body: {snippet!r}"
            ) from None

    def _submit_request(
        self, path: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """POST with admission-control honoring: 429 ``backpressure``
        answers are retried after the advertised ``Retry-After`` (with
        the same decorrelating jitter the pollers use); quarantine and
        every other status propagate untouched."""
        attempt = 0
        while True:
            try:
                return self._request("POST", path, payload)
            except ServiceError as exc:
                if (
                    exc.status != 429
                    or exc.body.get("code") != "backpressure"
                    or attempt >= self.backpressure_retries
                ):
                    raise
                attempt += 1
                delay = float(exc.body.get("retry_after", 1.0) or 1.0)
                self._sleep(
                    min(delay, 30.0) * (1.0 + 0.25 * random.random())
                )

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        job: Union[SimJob, Dict[str, Any]],
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit one job; returns ``{"id", "state", "deduped", ...}``."""
        spec = job_to_wire(job) if isinstance(job, SimJob) else job
        body = self._submit_request(
            "/jobs", {"job": spec, "priority": priority}
        )
        return body["jobs"][0]

    def submit_many(
        self,
        jobs: List[Union[SimJob, Dict[str, Any]]],
        priority: int = 0,
    ) -> List[Dict[str, Any]]:
        specs = [
            job_to_wire(job) if isinstance(job, SimJob) else job
            for job in jobs
        ]
        body = self._submit_request(
            "/jobs", {"jobs": specs, "priority": priority}
        )
        return body["jobs"]

    # -- polling ------------------------------------------------------------
    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def _poll(
        self,
        fetch: Callable[[], Dict[str, Any]],
        what: str,
        timeout: float,
        poll_interval: float,
        max_interval: float,
    ) -> Dict[str, Any]:
        """Poll ``fetch`` until a terminal state, with jittered backoff.

        A fixed poll period synchronises a fleet of waiting clients into
        bursts against the daemon; the interval instead grows
        geometrically (capped at ``max_interval``) and every sleep is
        stretched by up to 25% of random jitter so pollers decorrelate.
        """
        deadline = self._monotonic() + timeout
        interval = max(0.01, poll_interval)
        while True:
            record = fetch()
            if record["state"] in _TERMINAL:
                return record
            now = self._monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"{what} still {record['state']} after {timeout:g}s"
                )
            delay = interval * (1.0 + 0.25 * random.random())
            self._sleep(min(delay, deadline - now))
            interval = min(interval * 1.5, max_interval)

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.25,
        max_interval: float = 2.0,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the
        final record.  Raises ``TimeoutError`` if it does not."""
        return self._poll(
            lambda: self.status(job_id),
            f"job {job_id}",
            timeout,
            poll_interval,
            max_interval,
        )

    # -- experiments ---------------------------------------------------------
    def submit_experiment(
        self,
        space: Dict[str, Any],
        schedule: Optional[Dict[str, Any]] = None,
        objective: Optional[Union[str, Dict[str, Any]]] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit a parameter space for adaptive search; returns
        ``{"id", "state", "points", "rungs"}`` (see docs/service.md)."""
        payload: Dict[str, Any] = {"space": space, "priority": priority}
        if schedule is not None:
            payload["schedule"] = schedule
        if objective is not None:
            payload["objective"] = objective
        return self._submit_request("/experiments", payload)

    def experiment(self, experiment_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/experiments/{experiment_id}")

    def experiments(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/experiments")["experiments"]

    def wait_experiment(
        self,
        experiment_id: str,
        timeout: float = 1800.0,
        poll_interval: float = 0.5,
        max_interval: float = 5.0,
    ) -> Dict[str, Any]:
        """Poll until the experiment finishes; returns the final record."""
        return self._poll(
            lambda: self.experiment(experiment_id),
            f"experiment {experiment_id}",
            timeout,
            poll_interval,
            max_interval,
        )

    # -- cluster (worker agents) --------------------------------------------
    def cluster_register(
        self, node: str, capacity: int = 1
    ) -> Dict[str, Any]:
        """Register this process as a worker node; returns lease and
        heartbeat parameters.  Raises :class:`WireVersionError` against
        a frontend speaking a different wire format."""
        return self._request(
            "POST",
            "/cluster/register",
            {"node": node, "capacity": capacity, "wire_version": WIRE_VERSION},
        )

    def cluster_lease(
        self, node: str, wait: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Long-poll for a job lease; ``None`` when the round expires
        with no work.  The HTTP timeout is stretched past ``wait`` so
        the long-poll itself never times the socket out."""
        body = self._request(
            "POST",
            "/cluster/lease",
            {"node": node, "wait": wait, "wire_version": WIRE_VERSION},
            timeout=max(self.timeout, wait + 10.0),
        )
        return body.get("lease")

    def cluster_report(
        self,
        node: str,
        lease: str,
        job_id: str,
        result: Optional[Dict[str, Any]] = None,
        failure: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Deliver a lease outcome; False means the lease was stale
        (the job was reclaimed and is someone else's now)."""
        payload: Dict[str, Any] = {
            "node": node,
            "lease": lease,
            "job_id": job_id,
            "wire_version": WIRE_VERSION,
        }
        if result is not None:
            payload["result"] = result
        if failure is not None:
            payload["failure"] = failure
        return bool(
            self._request("POST", "/cluster/report", payload).get("accepted")
        )

    def cluster_heartbeat(
        self, node: str, inflight: int = 0, leases: Iterable[str] = ()
    ) -> int:
        """Renew liveness + the given leases; returns leases renewed."""
        body = self._request(
            "POST",
            "/cluster/heartbeat",
            {
                "node": node,
                "inflight": inflight,
                "leases": list(leases),
                "wire_version": WIRE_VERSION,
            },
        )
        return int(body.get("renewed", 0))

    def cache_get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The shard ring's entry for ``digest``, or ``None`` on miss."""
        try:
            body = self._request("GET", f"/cluster/cache/{digest}")
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise
        return body.get("result")

    def cache_put(self, digest: str, result: Dict[str, Any]) -> bool:
        body = self._request(
            "PUT", f"/cluster/cache/{digest}", {"result": result}
        )
        return bool(body.get("stored"))

    # -- introspection ------------------------------------------------------
    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")
