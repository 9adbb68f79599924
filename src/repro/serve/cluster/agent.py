"""The worker agent: a node that executes leases for a frontend.

``bingo-sim worker --connect URL`` runs one :class:`WorkerAgent`.  The
agent is a pure HTTP *client* of the frontend (workers behind NAT need
no listening socket): it registers, then ``capacity`` slot threads
long-poll ``POST /cluster/lease``, execute each leased job through a
node-local :class:`~repro.sim.executor.Executor` (the same
``run_job_guarded`` envelope the single-node slots use — one warm
worker process per slot, hard timeout, typed failures), and report the
outcome back.  :meth:`WorkerAgent.start` forks the slots' workers
before it starts any thread; :meth:`WorkerAgent.stop` closes them.  A
heartbeat thread renews the agent's liveness and its held leases; if
the agent dies instead, the frontend's lease deadlines reclaim its
jobs — the agent itself needs no shutdown handshake to be safe to
SIGKILL, which is exactly what ``tools/serve_smoke.py cluster`` does to
it.
Its workers exit on their own once their parent is gone (within a
second when idle, else after the running job).

Cache traffic goes through a :class:`~repro.serve.cluster.shard.TieredCache`
lease-scoped handle: local disk first, then the frontend's result cache
(``GET/PUT /cluster/cache/<digest>``), so a job re-run anywhere in the
cluster dedupes.  Transport failures never fail a lease — every client
call here degrades to "back off and try again", with deterministic
jitter reusing :class:`~repro.serve.supervisor.RetryPolicy`.

A wire-version mismatch (:class:`~repro.serve.client.WireVersionError`)
is the one *fatal* error: a mixed-version cluster must fail loudly at
register time, not corrupt results quietly.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from typing import Any, Dict, Optional

from repro.common.stats import StatGroup
from repro.sim.executor import Executor, ResultCache
from repro.sim.results import SimResult
from repro.serve.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    WireVersionError,
)
from repro.serve.cluster.shard import ClusterCacheClient, TieredCache
from repro.serve.jobs import job_from_wire
from repro.serve.supervisor import RetryPolicy

#: how long one lease long-poll asks the frontend to block; short enough
#: that stop() and drain stay responsive without hammering the frontend
DEFAULT_LEASE_WAIT = 5.0


def default_node_id() -> str:
    """``<host>-<pid>-<nonce>``: readable in metrics, unique per process."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:4]}"


class WorkerAgent:
    """One node's worth of cluster capacity.  See module docstring."""

    def __init__(
        self,
        connect_url: str,
        node_id: Optional[str] = None,
        capacity: int = 1,
        job_timeout: float = 300.0,
        cache_dir: Optional[str] = "",
        lease_wait: float = DEFAULT_LEASE_WAIT,
        retry: Optional[RetryPolicy] = None,
        client: Optional[ServiceClient] = None,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if job_timeout < 0:
            raise ValueError(f"job_timeout must be >= 0, got {job_timeout}")
        self.node_id = node_id or default_node_id()
        self.capacity = capacity
        self.job_timeout = job_timeout
        self.lease_wait = max(0.0, lease_wait)
        #: backoff schedule for transport errors; max_attempts is not
        #: used here (the agent retries until stopped), only the curve
        self.retry = retry if retry is not None else RetryPolicy(
            base_delay=0.2, max_delay=10.0
        )
        # the client timeout must comfortably exceed the lease long-poll
        self.client = client if client is not None else ServiceClient(
            connect_url, timeout=self.lease_wait + 30.0
        )
        self.stats = stats if stats is not None else StatGroup("worker")

        if cache_dir is None:
            self._local_cache: Optional[ResultCache] = None
        elif cache_dir == "":
            self._local_cache = ResultCache()
        else:
            self._local_cache = ResultCache(cache_dir)
        #: set after register() says whether the frontend result cache is on
        self._remote_cache: Optional[ClusterCacheClient] = None

        executor_stats = self.stats.child("executor")
        self._executors = [
            Executor(workers=1, cache=None, stats=executor_stats.child(f"slot{i}"))
            for i in range(capacity)
        ]
        self.heartbeat_interval = 5.0
        self._lock = threading.Lock()
        self._held: set = set()  # lease ids currently executing
        self._threads: list = []
        self._stopping = threading.Event()
        self._started = False
        self._registered = threading.Event()
        #: set on a fatal protocol error (wire-version mismatch)
        self.fatal: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "WorkerAgent":
        """Register (retrying until the frontend answers), fork the
        slots' warm workers, then start the slot and heartbeat threads."""
        if self._started:
            raise RuntimeError("agent already started")
        self._started = True
        self._register_blocking()
        # fork before any thread of ours exists (see SimulationService.start)
        for executor in self._executors:
            executor.start_worker()
        for i, executor in enumerate(self._executors):
            thread = threading.Thread(
                target=self._slot_loop,
                args=(executor,),
                name=f"worker-slot-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        beat = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        )
        beat.start()
        self._threads.append(beat)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Finish in-flight leases, then stop and close the slots'
        workers.  Leases that cannot be reported in time are simply
        abandoned — the frontend's deadline reclaim covers them, same as
        a crash."""
        self._stopping.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        for executor in self._executors:
            executor.close()

    @property
    def stopped(self) -> bool:
        return self._stopping.is_set()

    # -- registration -------------------------------------------------------
    def _register_blocking(self) -> None:
        attempt = 0
        while not self._stopping.is_set():
            try:
                self._register_once()
                return
            except WireVersionError:
                self._stopping.set()
                raise
            except (ServiceError, ServiceUnavailable, OSError):
                attempt += 1
                self.stats.add("register_retries")
                self._sleep(self.retry.delay(attempt, self.node_id))

    def _register_once(self) -> None:
        info = self.client.cluster_register(self.node_id, capacity=self.capacity)
        self.heartbeat_interval = float(
            info.get("heartbeat_interval", self.heartbeat_interval) or 5.0
        )
        if info.get("cache_enabled"):
            self._remote_cache = ClusterCacheClient(self.client)
        else:
            self._remote_cache = None
        self._registered.set()
        self.stats.add("registrations")

    def _cache_handle(self):
        """The lease-scoped cache for ``run_job_guarded``: local disk in
        front of the frontend's result cache (either tier may be absent)."""
        if self._local_cache is None and self._remote_cache is None:
            return None
        return TieredCache(self._local_cache, self._remote_cache)

    # -- the slot loop ------------------------------------------------------
    def _slot_loop(self, executor: Executor) -> None:
        backoff_attempt = 0
        while not self._stopping.is_set():
            try:
                lease = self.client.cluster_lease(
                    self.node_id, wait=self.lease_wait
                )
            except WireVersionError as exc:
                # fatal: a frontend restart onto a different version
                self.fatal = exc
                self._stopping.set()
                return
            except ServiceError as exc:
                backoff_attempt = self._on_service_error(exc, backoff_attempt)
                continue
            except (ServiceUnavailable, OSError):
                backoff_attempt += 1
                self.stats.add("transport_errors")
                self._sleep(self.retry.delay(backoff_attempt, self.node_id))
                continue
            backoff_attempt = 0
            if lease is None:
                continue  # long-poll round expired with no work
            self._run_lease(executor, lease)

    def _on_service_error(self, exc: ServiceError, attempt: int) -> int:
        """Shared 4xx/5xx handling for the lease loop; returns the new
        backoff attempt counter."""
        if exc.status == 404 and exc.body.get("code") == "unknown-node":
            # frontend restarted and lost the registry; re-register
            self.stats.add("re_registrations")
            try:
                self._register_once()
            except (ServiceError, ServiceUnavailable, OSError):
                self._sleep(self.retry.delay(attempt + 1, self.node_id))
            return attempt + 1
        retry_after = exc.body.get("retry_after")
        if exc.status == 429 and retry_after is not None:
            # quarantined by the per-node breaker: honor the cooldown
            self.stats.add("quarantined")
            self._sleep(min(float(retry_after), 60.0))
            return attempt
        self.stats.add("service_errors")
        self._sleep(self.retry.delay(attempt + 1, self.node_id))
        return attempt + 1

    def _run_lease(self, executor: Executor, lease: Dict[str, Any]) -> None:
        lease_id = str(lease.get("id"))
        job_id = str(lease.get("job_id"))
        try:
            job = job_from_wire(lease["job"])
        except (KeyError, ValueError, TypeError) as exc:
            # a lease this agent cannot parse is a deterministic error:
            # report it so the job fails fast instead of bouncing
            self.stats.add("leases_unparseable")
            self._report(lease_id, job_id, failure={
                "kind": "error",
                "message": f"worker could not parse leased job: {exc}",
            })
            return
        with self._lock:
            self._held.add(lease_id)
        self.stats.add("leases")
        try:
            outcome = executor.run_job_guarded(
                job,
                timeout=self.job_timeout or None,
                cache=self._cache_handle(),
            )
            if isinstance(outcome, SimResult):
                accepted = self._report(
                    lease_id, job_id, result=outcome.to_dict()
                )
            else:
                accepted = self._report(
                    lease_id, job_id, failure=outcome.to_dict()
                )
            if accepted is False:
                self.stats.add("reports_stale")
        finally:
            with self._lock:
                self._held.discard(lease_id)

    def _report(
        self,
        lease_id: str,
        job_id: str,
        result: Optional[Dict[str, Any]] = None,
        failure: Optional[Dict[str, Any]] = None,
    ) -> Optional[bool]:
        """Deliver an outcome, retrying transport errors while the lease
        plausibly still stands.  ``None`` means delivery failed — the
        lease deadline will reclaim the job elsewhere."""
        for attempt in range(1, 6):
            if self.fatal is not None:
                return None
            try:
                accepted = self.client.cluster_report(
                    self.node_id,
                    lease_id,
                    job_id,
                    result=result,
                    failure=failure,
                )
                self.stats.add("reports")
                return accepted
            except WireVersionError as exc:
                self.fatal = exc
                self._stopping.set()
                return None
            except ServiceError as exc:
                if exc.status == 404 and exc.body.get("code") == "unknown-node":
                    try:
                        self._register_once()
                        continue
                    except (ServiceError, ServiceUnavailable, OSError):
                        pass
                self.stats.add("report_errors")
                return None  # 4xx: the report itself is refused
            except (ServiceUnavailable, OSError):
                self.stats.add("transport_errors")
                self._sleep(self.retry.delay(attempt, lease_id))
        self.stats.add("reports_lost")
        return None

    # -- heartbeats ---------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stopping.wait(self.heartbeat_interval):
            with self._lock:
                held = sorted(self._held)
            try:
                self.client.cluster_heartbeat(
                    self.node_id, inflight=len(held), leases=held
                )
                self.stats.add("heartbeats")
            except ServiceError as exc:
                if exc.status == 404 and exc.body.get("code") == "unknown-node":
                    try:
                        self._register_once()
                    except (ServiceError, ServiceUnavailable, OSError):
                        pass
            except (ServiceUnavailable, OSError):
                self.stats.add("transport_errors")

    # -- misc ---------------------------------------------------------------
    def _sleep(self, seconds: float) -> None:
        """Interruptible sleep: wakes immediately on stop()."""
        self._stopping.wait(max(0.0, seconds))

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            held = sorted(self._held)
        return {
            "node": self.node_id,
            "capacity": self.capacity,
            "held_leases": held,
            "counters": self.stats.as_dict(),  # includes executor slots
        }


def run_worker(
    connect_url: str,
    node_id: Optional[str] = None,
    capacity: int = 1,
    job_timeout: float = 300.0,
    cache_dir: Optional[str] = "",
    lease_wait: float = DEFAULT_LEASE_WAIT,
    verbose: bool = True,
    install_signals: bool = True,
    ready: Optional[threading.Event] = None,
) -> WorkerAgent:
    """Run a worker agent until SIGTERM/SIGINT; the ``bingo-sim worker``
    entry point.  Blocks the calling thread; returns the stopped agent
    so embedding callers can assert on its counters."""
    agent = WorkerAgent(
        connect_url,
        node_id=node_id,
        capacity=capacity,
        job_timeout=job_timeout,
        cache_dir=cache_dir,
        lease_wait=lease_wait,
    )
    stop = threading.Event()
    if install_signals:
        def _request_stop(signum, frame):  # pragma: no cover - signal path
            stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    agent.start()
    if verbose:
        print(
            f"bingo-worker {agent.node_id} connected to "
            f"{agent.client.base_url} ({capacity} slot(s), "
            f"timeout {job_timeout:g}s)",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        while not stop.wait(0.2):
            if agent.stopped:  # fatal error path (wire mismatch)
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    if verbose:
        print(f"bingo-worker {agent.node_id} draining...", flush=True)
    agent.stop()
    if agent.fatal is not None:
        raise SystemExit(f"bingo-worker: fatal: {agent.fatal}")
    if verbose:
        print(f"bingo-worker {agent.node_id} stopped", flush=True)
    return agent
