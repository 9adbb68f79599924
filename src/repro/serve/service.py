"""The simulation service: queue + supervisor + warm executor slots.

A :class:`SimulationService` is the long-lived object a daemon (or a
test) owns.  It wires together the subsystem:

* submissions enter through :meth:`submit` — breaker-gated, then
  digest-deduplicated against in-flight work by the queue;
* ``workers`` slot threads each pop the highest-priority ready record
  and run it through their **own** :class:`~repro.sim.executor.Executor`
  via :meth:`~repro.sim.executor.Executor.run_job_guarded` (hard
  wall-clock timeout, typed failures).  Each slot's executor keeps one
  warm worker process that runs job after job; :meth:`start` forks them
  all before it starts any thread, and a worker killed by a timeout or
  lost to a crash is replaced by a fresh fork at the slot's next job.
  All slots share one :class:`~repro.sim.executor.ResultCache` and one
  on-disk compiled-trace cache — the whole point of a warm daemon.  The
  cluster coordinator serves that same result cache to worker agents,
  so it is the service's only result store;
* outcomes feed the :class:`~repro.serve.supervisor.Supervisor`:
  transient failures are re-queued with exponential backoff + jitter,
  terminal ones feed the circuit breaker;
* :meth:`drain` implements graceful SIGTERM: stop popping, finish
  running jobs, close the slots' workers, persist everything
  non-terminal to ``<state_dir>/queue.json`` for the next start's
  :meth:`restore`.

Metrics are one :class:`~repro.common.stats.StatGroup` tree (service
counters + per-stage latency histograms + per-slot executor counters),
snapshotted by ``GET /metrics``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.stats import StatGroup
from repro.sim.executor import Executor, JobFailure, ResultCache, SimJob
from repro.sim.results import SimResult
from repro.serve.cluster.coordinator import (
    AdmissionController,
    AdmissionError,
    ClusterCoordinator,
)
from repro.serve.jobs import JobRecord, JobState
from repro.serve.metrics import LatencyHistogram
from repro.serve.queue import JobQueue
from repro.serve.supervisor import CircuitBreaker, RetryPolicy, Supervisor


class QuarantinedError(RuntimeError):
    """Submission refused: the circuit breaker is open for this spec."""

    def __init__(self, digest: str, retry_after: float) -> None:
        self.digest = digest
        self.retry_after = retry_after
        super().__init__(
            f"job spec {digest[:12]} is quarantined after repeated "
            f"failures; retry in {retry_after:.0f}s"
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon start needs, in one picklable value.

    ``workers=0`` runs a *frontend-only* node: no local executor slots,
    all execution delegated to cluster worker agents (the queue, the
    supervisor, and the HTTP surface behave identically either way).
    """

    workers: int = 2
    #: per-job wall-clock budget in seconds; 0 disables the timeout
    job_timeout: float = 300.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_cooldown: float = 60.0
    #: where the drain file lives; None disables restart recovery
    state_dir: Optional[str] = None
    #: share the on-disk result cache (None = no result cache)
    cache_dir: Optional[str] = ""  # "" means default_cache_dir()
    #: admission bound on pending queue depth; 0 = unbounded (the
    #: single-node default — behaviour is then exactly the pre-cluster
    #: service)
    max_queue_depth: int = 0
    #: how long a cluster lease lives between heartbeats before its job
    #: is reclaimed from the (presumed dead) worker
    lease_ttl: float = 30.0
    #: heartbeat cadence advertised to registering workers
    heartbeat_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.job_timeout < 0:
            raise ValueError(f"job_timeout must be >= 0, got {self.job_timeout}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {self.lease_ttl}")


class SimulationService:
    """See module docstring.  Thread-safe for submissions and reads."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.queue = JobQueue(clock=clock)
        self.supervisor = Supervisor(
            retry=self.config.retry,
            breaker=CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
                clock=clock,
            ),
        )
        self.stats = StatGroup("serve")
        self._metrics_lock = threading.Lock()
        self._queue_wait = LatencyHistogram(self.stats, "queue_wait")
        self._run_latency = LatencyHistogram(self.stats, "run")
        self._started_at = time.time()

        #: the one result store: local slots and the cluster cache routes
        if self.config.cache_dir is None:
            self.cache: Optional[ResultCache] = None
        elif self.config.cache_dir == "":
            self.cache = ResultCache()
        else:
            self.cache = ResultCache(self.config.cache_dir)
        executor_stats = self.stats.child("executor")
        self._executors: List[Executor] = [
            Executor(
                workers=1,
                cache=self.cache,
                stats=executor_stats.child(f"slot{i}"),
            )
            for i in range(self.config.workers)
        ]
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._started = False
        #: queue-depth backpressure on POST /jobs
        self.admission = AdmissionController(
            max_depth=self.config.max_queue_depth, clock=clock
        )
        #: the multi-node tier: node registry, leases, and the cache
        #: routes over the slots' result cache
        self.cluster = ClusterCoordinator(
            self,
            lease_ttl=self.config.lease_ttl,
            heartbeat_interval=self.config.heartbeat_interval,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown,
            cache=self.cache,
            clock=clock,
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "SimulationService":
        """Restore any drained queue, fork the slots' warm workers, then
        start the slot threads."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        restored = self.restore()
        if restored:
            self._count("restored_jobs", restored)
        if self.queue.dropped_jobs:
            self._count("dropped_jobs", self.queue.dropped_jobs)
        # fork before any thread of ours exists: a child forked from a
        # threaded process can inherit a lock held by a thread it lacks
        for executor in self._executors:
            executor.start_worker()
        for i, executor in enumerate(self._executors):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(executor,),
                name=f"serve-slot-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        reaper = threading.Thread(
            target=self._reaper_loop, name="serve-lease-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        return self

    @property
    def draining(self) -> bool:
        return self._stopping.is_set()

    def drain(self, timeout: float = 30.0) -> int:
        """Graceful shutdown: finish running jobs, persist the rest.

        Returns the number of records persisted for restart recovery.
        Idempotent; safe to call from a signal-initiated thread.
        """
        self._stopping.set()
        self.queue.close()
        deadline = self._clock() + timeout
        for thread in self._threads:
            remaining = max(0.1, deadline - self._clock())
            thread.join(remaining)
        for executor in self._executors:
            executor.close()
        persisted = 0
        if self.config.state_dir is not None:
            persisted = self.queue.persist(self._state_path())
            if persisted:
                self._count("persisted_jobs", persisted)
        self._drained.set()
        return persisted

    def restore(self) -> int:
        """Load a previous drain's pending queue, if any."""
        if self.config.state_dir is None:
            return 0
        return self.queue.restore(self._state_path())

    def _state_path(self) -> Path:
        return Path(self.config.state_dir) / "queue.json"

    # -- submission ---------------------------------------------------------
    def submit(
        self, job: SimJob, priority: int = 0
    ) -> Tuple[JobRecord, bool]:
        """Queue a job; returns ``(record, deduped)``.

        Raises :class:`QuarantinedError` when the breaker is open for
        this spec, :class:`AdmissionError` when the queue is beyond its
        depth bound, and ``RuntimeError`` when the service is draining.
        """
        record = JobRecord(job=job, priority=priority)
        with self._metrics_lock:
            if not self.supervisor.admit(record.digest):
                self.stats.add("rejected_quarantined")
                raise QuarantinedError(
                    record.digest,
                    self.supervisor.breaker.retry_after(record.digest),
                )
        # dedup hits bypass admission: they add no work, so bouncing
        # them off a full queue would only hurt (benign TOCTOU — an
        # in-flight record finishing between here and submit just means
        # one extra admitted job)
        if self.queue.in_flight_id(record.digest) is None:
            depth = self.queue.depth()
            retry_after = self.admission.check(depth)
            if retry_after is not None:
                self._count("rejected_admission")
                raise AdmissionError(depth, retry_after)
        record, deduped = self.queue.submit(record)
        self._count("submitted")
        if deduped:
            self._count("dedup_hits")
        return record, deduped

    # -- the worker slots ---------------------------------------------------
    def _worker_loop(self, executor: Executor) -> None:
        while not self._stopping.is_set():
            record = self.queue.pop(timeout=0.2)
            if record is None:
                continue
            try:
                self._run_record(executor, record)
            except Exception as exc:  # pragma: no cover - defensive
                # A bug in the service layer itself must not kill the
                # slot thread silently; fail the record so clients see it.
                record.state = JobState.FAILED
                record.finished_at = time.time()
                record.error = {
                    "kind": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
                self.queue.finish(record)
                self._count("internal_errors")

    def _run_record(self, executor: Executor, record: JobRecord) -> None:
        started = self._clock()
        record.started_at = time.time()
        self.observe_dispatch(record)
        timeout = self.config.job_timeout or None
        outcome = executor.run_job_guarded(record.job, timeout=timeout)
        with self._metrics_lock:
            self._run_latency.observe(self._clock() - started)
        self.resolve_outcome(record, outcome)

    def resolve_outcome(
        self,
        record: JobRecord,
        outcome,
        source: str = "local",
    ) -> str:
        """Book a running record's outcome; returns the resulting state
        (``"done"`` / ``"retry"`` / ``"failed"``).

        The single terminal-bookkeeping path for *every* execution site —
        local worker slots, cluster reports, and lease-expiry reclaims
        all land here — so supervisor policy (retry budget, backoff,
        per-digest breaker), dedup release, admission drain accounting,
        and counters cannot diverge between single-node and cluster
        runs.  ``source`` names where the outcome came from (a node id,
        or ``"local"``) for the failure record.
        """
        if isinstance(outcome, SimResult):
            record.result = outcome
            record.error = None
            record.state = JobState.DONE
            record.finished_at = time.time()
            with self._metrics_lock:
                self.supervisor.on_success(record)
            self.queue.finish(record)
            self._count("completed")
            self.admission.on_completion()
            return "done"

        failure: JobFailure = outcome
        self._count(f"failures_{failure.kind.replace('-', '_')}")
        with self._metrics_lock:
            action, delay = self.supervisor.decide(record, failure)
        if action == "retry":
            # Re-queue even while draining: the record then persists as
            # pending and the retry happens after restart.
            record.error = failure.to_dict()  # visible while it waits
            self.queue.requeue(record, delay)
            self._count("retries")
            return "retry"
        record.state = JobState.FAILED
        record.finished_at = time.time()
        error = dict(failure.to_dict(), attempts=record.attempts)
        if source != "local":
            error["node"] = source
        record.error = error
        self.queue.finish(record)
        self._count("failed")
        self.admission.on_completion()
        return "failed"

    def observe_dispatch(self, record: JobRecord) -> None:
        """Record the queue-wait of a record leaving the queue (local
        pop or cluster lease grant)."""
        waited = time.time() - record.submitted_at
        with self._metrics_lock:
            self._queue_wait.observe(waited)

    def observe_run_latency(self, seconds: float) -> None:
        """Feed the run-latency histogram from a remote execution."""
        with self._metrics_lock:
            self._run_latency.observe(max(0.0, seconds))

    def _reaper_loop(self) -> None:
        """Periodically reclaim expired cluster leases, bounding reclaim
        latency even when no cluster call arrives to do it lazily."""
        interval = max(0.25, min(self.config.lease_ttl / 4.0, 5.0))
        while not self._stopping.wait(interval):
            try:
                self.cluster.reap()
            except Exception:  # pragma: no cover - defensive
                self._count("internal_errors")

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.stats.add(counter, amount)

    # -- introspection ------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.queue.get(job_id)

    def health(self) -> Dict[str, Any]:
        counts = self.queue.state_counts()
        return {
            "ok": True,
            "state": "draining" if self.draining else "running",
            "workers": self.config.workers,
            "cluster_workers": self.cluster.alive_count(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "queue_depth": counts.get("pending", 0),
            "in_flight": counts.get("running", 0),
        }

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: gauges + the full counter tree.

        Per-slot executor counters are also aggregated into
        ``executor_totals`` so clients read cache hit rates without
        summing slots themselves.
        """
        counts = self.queue.state_counts()
        with self._metrics_lock:
            tree = self.stats.as_dict()
        totals: Dict[str, float] = {}
        for executor in self._executors:
            for name, value in executor.stats.counters().items():
                totals[name] = totals.get(name, 0) + value
        return {
            "queue_depth": counts.get("pending", 0),
            "in_flight": counts.get("running", 0),
            "jobs_by_state": counts,
            "breaker_open_digests": self.supervisor.breaker.open_digests,
            "executor_totals": totals,
            # the multi-node tier: per-node gauges, leases, steals
            "cluster": self.cluster.snapshot(),
            "admission": {
                "max_depth": self.admission.max_depth,
                "drain_rate": round(self.admission.drain_rate(), 6),
                "rejected": self.admission.rejected,
            },
            "counters": tree,
        }
