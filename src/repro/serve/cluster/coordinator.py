"""The frontend's cluster brain: nodes, leases, admission, reclaim.

A :class:`ClusterCoordinator` hangs off the
:class:`~repro.serve.service.SimulationService` and owns everything
multi-node:

* the **node registry** — worker agents register, then every
  authenticated call refreshes their heartbeat; a node that goes
  silent past ``dead_after`` shows as not alive in ``/metrics``;
* **leases** — :meth:`lease` pops the next ready record from the
  service's ordinary queue and hands it out with a deadline.
  Heartbeats renew the deadlines of the leases they enumerate; a lease
  whose deadline lapses (worker SIGKILLed, network partition) is
  *reclaimed*: the job re-enters the queue through the supervisor's
  ordinary retry path, exactly as a local worker-slot crash would,
  so attempts stay bounded and backoff applies;
* the **per-node circuit breaker** — the per-digest breaker's sibling:
  a node whose jobs keep crashing, timing out, or losing their leases
  stops being offered work for a cooldown;
* **work stealing** — when the ready heap is empty, an idle worker
  takes a record out of the backoff-gated backlog early.  The backoff
  delay protects the node that just failed the job (and the spec's
  own retry budget), not a healthy idle peer — stealing skips records
  whose previous lease was on the requesting node;
* **admission control** (:class:`AdmissionController`) — beyond a
  configured queue depth, new work is refused with a ``Retry-After``
  derived from the observed drain rate, so a saturated frontend
  degrades to explicit backpressure instead of an unbounded queue;
* the **cache routes** — ``cache_get``/``cache_put`` serve the
  service's own :class:`~repro.sim.executor.ResultCache` to worker
  agents, and every accepted result is stored there, so a result
  computed by an agent or by a local slot is computed once.

Terminal bookkeeping is shared with the local worker slots through
:meth:`SimulationService.resolve_outcome`, which is what keeps
single-node and cluster execution byte-identical: the only thing the
cluster changes is *where* ``execute_job`` runs.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.sim.executor import JobFailure, ResultCache
from repro.sim.results import SimResult
from repro.serve.cluster.shard import valid_digest
from repro.serve.jobs import JobRecord, JobState, job_to_wire, new_job_id
from repro.serve.supervisor import CircuitBreaker

#: the longest a single ``POST /cluster/lease`` may block server-side;
#: clients long-poll in bounded rounds so drains and timeouts stay snappy
MAX_LEASE_WAIT = 20.0


class UnknownNodeError(KeyError):
    """A cluster call from a node id that never registered (or a
    restarted frontend that lost the registry) — the peer must
    re-register before anything else."""

    def __init__(self, node: str) -> None:
        self.node = node
        super().__init__(f"unknown node {node!r}; register first")


class NodeQuarantined(RuntimeError):
    """Lease refused: the per-node breaker is open for this worker."""

    def __init__(self, node: str, retry_after: float) -> None:
        self.node = node
        self.retry_after = retry_after
        super().__init__(
            f"node {node!r} is quarantined after repeated failures; "
            f"retry in {retry_after:.0f}s"
        )


class AdmissionError(RuntimeError):
    """Submission refused: the queue is beyond its depth bound."""

    def __init__(self, depth: int, retry_after: float) -> None:
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"queue depth {depth} is at capacity; "
            f"retry in {retry_after:.1f}s"
        )


class AdmissionController:
    """Queue-depth bound with drain-rate-derived ``Retry-After``.

    ``max_depth <= 0`` disables the bound (the single-node default —
    behaviour is then exactly the pre-cluster service).  Completions
    are timestamped into a sliding ``window`` so the advertised
    ``Retry-After`` tracks how fast the deployment actually drains:
    an excess of E pending records over a drain rate of R jobs/second
    suggests waiting ``E / R`` seconds, clamped to
    ``[min_retry, max_retry]``.  Before any drain has been observed
    the fallback is ``min_retry`` per excess record.
    """

    def __init__(
        self,
        max_depth: int = 0,
        window: float = 30.0,
        min_retry: float = 0.5,
        max_retry: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if min_retry <= 0 or max_retry < min_retry:
            raise ValueError("need 0 < min_retry <= max_retry")
        self.max_depth = max_depth
        self.window = window
        self.min_retry = min_retry
        self.max_retry = max_retry
        self._clock = clock
        self._completions: Deque[float] = collections.deque()
        self._lock = threading.Lock()
        self.rejected = 0

    def on_completion(self) -> None:
        """Record one job reaching a terminal state (drain signal)."""
        now = self._clock()
        with self._lock:
            self._completions.append(now)
            self._prune_locked(now)

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window
        while self._completions and self._completions[0] < horizon:
            self._completions.popleft()

    def drain_rate(self) -> float:
        """Observed terminal events per second over the window."""
        now = self._clock()
        with self._lock:
            self._prune_locked(now)
            return len(self._completions) / self.window

    def check(self, depth: int) -> Optional[float]:
        """``None`` to admit, else the ``Retry-After`` to advertise."""
        if self.max_depth <= 0 or depth < self.max_depth:
            return None
        excess = depth - self.max_depth + 1
        rate = self.drain_rate()
        retry = excess / rate if rate > 0 else excess * self.min_retry
        with self._lock:
            self.rejected += 1
        return min(max(retry, self.min_retry), self.max_retry)


@dataclass
class Lease:
    """One job handed to one node, with an expiry deadline."""

    id: str
    job_id: str
    digest: str
    node: str
    deadline: float
    stolen: bool = False


@dataclass
class WorkerNode:
    """Registry entry for one worker agent."""

    id: str
    capacity: int = 1
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    #: inflight count the agent last reported about itself
    reported_inflight: int = 0
    #: lease ids currently held
    leases: Set[str] = field(default_factory=set)
    #: cumulative leases ever granted
    leases_granted: int = 0


class ClusterCoordinator:
    """See module docstring.  Thread-safe; every entry point reaps."""

    def __init__(
        self,
        service,
        lease_ttl: float = 30.0,
        heartbeat_interval: float = 5.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        cache: Optional[ResultCache] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.service = service
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self._clock = clock
        self._lock = threading.Lock()
        self._nodes: Dict[str, WorkerNode] = {}
        self._leases: Dict[str, Lease] = {}
        #: job id -> node that last held its lease (steal-skip + forensics)
        self._last_node: Dict[str, str] = {}
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            clock=clock,
        )
        #: the service's result store; ``None`` answers every cache
        #: call with a miss / not-stored
        self.cache = cache
        #: counters under the service tree (serve.cluster.*); written
        #: under ``self._lock``
        self.stats = service.stats.child("cluster")

    # -- registry -----------------------------------------------------------
    def register(self, node_id: str, capacity: int = 1) -> Dict[str, Any]:
        """Admit (or refresh) a worker."""
        now = self._clock()
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                node = WorkerNode(
                    id=node_id,
                    capacity=max(1, capacity),
                    registered_at=now,
                )
                self._nodes[node_id] = node
                self.stats.add("registrations")
            else:
                node.capacity = max(1, capacity)
                self.stats.add("re_registrations")
            node.last_heartbeat = now
        return {
            "node": node_id,
            "lease_ttl": self.lease_ttl,
            "heartbeat_interval": self.heartbeat_interval,
            "cache_enabled": self.cache is not None,
        }

    def _node_locked(self, node_id: str) -> WorkerNode:
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        node.last_heartbeat = self._clock()
        return node

    def heartbeat(
        self,
        node_id: str,
        inflight: int = 0,
        leases: Optional[List[str]] = None,
    ) -> int:
        """Refresh liveness; renew the enumerated leases.  Returns the
        number of leases renewed — a worker seeing fewer renewals than
        it asked for knows some were reclaimed."""
        renewed = 0
        with self._lock:
            self._reap_locked()
            node = self._node_locked(node_id)
            node.reported_inflight = max(0, int(inflight))
            for lease_id in leases or []:
                lease = self._leases.get(lease_id)
                if lease is not None and lease.node == node_id:
                    lease.deadline = self._clock() + self.lease_ttl
                    renewed += 1
            self.stats.add("heartbeats")
        return renewed

    # -- leases -------------------------------------------------------------
    def lease(self, node_id: str, wait: float = 0.0) -> Optional[Dict[str, Any]]:
        """The next job for ``node_id`` as a lease wire dict, or ``None``.

        Blocks up to ``wait`` (bounded by :data:`MAX_LEASE_WAIT`) for
        ready work — the long-poll half of the protocol.  Raises
        :class:`UnknownNodeError` for unregistered peers and
        :class:`NodeQuarantined` when the per-node breaker is open.
        """
        with self._lock:
            self._reap_locked()
            self._node_locked(node_id)
            if not self.breaker.allow(node_id):
                self.stats.add("leases_refused_quarantined")
                raise NodeQuarantined(
                    node_id, self.breaker.retry_after(node_id)
                )
        # the blocking pop happens outside the coordinator lock: other
        # nodes keep leasing/reporting while this one long-polls
        wait = min(max(0.0, wait), MAX_LEASE_WAIT)
        record = self.service.queue.pop(timeout=wait)
        stolen = False
        if record is None:
            record = self.service.queue.steal(
                skip=lambda r: self._last_node.get(r.id) == node_id
            )
            stolen = record is not None
        if record is None:
            return None
        now = self._clock()
        lease = Lease(
            id=new_job_id(),
            job_id=record.id,
            digest=record.digest,
            node=node_id,
            deadline=now + self.lease_ttl,
            stolen=stolen,
        )
        with self._lock:
            node = self._nodes.get(node_id)
            if node is not None:
                node.leases.add(lease.id)
                node.leases_granted += 1
            self._leases[lease.id] = lease
            self._last_node[record.id] = node_id
            self.stats.add("leases_granted")
            if stolen:
                self.stats.add("steals")
        record.started_at = time.time()
        self.service.observe_dispatch(record)
        return {
            "id": lease.id,
            "job_id": record.id,
            "digest": record.digest,
            "attempts": record.attempts,
            "priority": record.priority,
            "deadline_in": self.lease_ttl,
            "stolen": stolen,
            "job": job_to_wire(record.job),
        }

    def report(
        self,
        node_id: str,
        lease_id: str,
        job_id: str,
        result: Optional[Dict[str, Any]] = None,
        failure: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Accept a worker's outcome for a lease; returns acceptance.

        A stale lease (expired and reclaimed, or simply unknown after a
        frontend restart) is *not* an error for the worker — the job is
        someone else's now; the report is counted and discarded.
        Malformed result payloads raise ``ValueError`` (a 400).
        """
        if (result is None) == (failure is None):
            raise ValueError("report needs exactly one of result/failure")
        with self._lock:
            self._reap_locked()
            self._node_locked(node_id)
            lease = self._leases.get(lease_id)
            if (
                lease is None
                or lease.node != node_id
                or lease.job_id != job_id
            ):
                self.stats.add("reports_stale")
                return False
            del self._leases[lease_id]
            node = self._nodes.get(node_id)
            if node is not None:
                node.leases.discard(lease_id)
        record = self.service.get(job_id)
        if record is None or record.state is not JobState.RUNNING:
            with self._lock:
                self.stats.add("reports_stale")
            return False

        if result is not None:
            try:
                outcome: Any = SimResult.from_dict(result)
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"malformed result payload: {exc}") from None
            # store the result so a re-run anywhere dedupes even if the
            # worker's own PUT was lost with the worker
            if record.job.cacheable:
                self.cache_put(record.digest, result)
            with self._lock:
                self.breaker.record_success(node_id)
        else:
            outcome = self._failure_from_wire(record, failure)
            if outcome.retryable:
                # crashes/timeouts indict the node; deterministic
                # errors indict the spec (the per-digest breaker's job)
                with self._lock:
                    self.breaker.record_failure(node_id)
        state = self.service.resolve_outcome(record, outcome, source=node_id)
        with self._lock:
            self.stats.add("reports_accepted")
            if state in ("done", "failed"):
                self._last_node.pop(job_id, None)
        latency = time.time() - (record.started_at or record.submitted_at)
        self.service.observe_run_latency(latency)
        return True

    @staticmethod
    def _failure_from_wire(
        record: JobRecord, failure: Dict[str, Any]
    ) -> JobFailure:
        if not isinstance(failure, dict):
            raise ValueError("'failure' must be an object")
        kind = str(failure.get("kind", "error"))
        return JobFailure(
            workload=record.job.workload,
            prefetcher=record.job.prefetcher,
            kind=kind,
            message=str(failure.get("message", "worker reported failure")),
            digest=record.digest,
        )

    # -- expiry -------------------------------------------------------------
    def reap(self) -> int:
        """Reclaim every expired lease; returns the count reclaimed.

        Called lazily by every entry point and periodically by the
        service's reaper thread, so reclaim latency is bounded by the
        reaper tick even on an otherwise idle frontend.
        """
        with self._lock:
            expired = self._collect_expired_locked()
        return self._reclaim(expired)

    def _reap_locked(self) -> None:
        expired = self._collect_expired_locked()
        if expired:
            # resolve outside the lock on the next public reap is not
            # acceptable here — reclaim immediately, but without
            # holding the coordinator lock across queue/supervisor work
            self._lock.release()
            try:
                self._reclaim(expired)
            finally:
                self._lock.acquire()

    def _collect_expired_locked(self) -> List[Lease]:
        now = self._clock()
        expired = [
            lease for lease in self._leases.values() if lease.deadline <= now
        ]
        for lease in expired:
            del self._leases[lease.id]
            node = self._nodes.get(lease.node)
            if node is not None:
                node.leases.discard(lease.id)
            self.stats.add("leases_expired")
        return expired

    def _reclaim(self, expired: List[Lease]) -> int:
        reclaimed = 0
        for lease in expired:
            with self._lock:
                self.breaker.record_failure(lease.node)
            record = self.service.get(lease.job_id)
            if record is None or record.state is not JobState.RUNNING:
                continue
            failure = JobFailure(
                workload=record.job.workload,
                prefetcher=record.job.prefetcher,
                kind="worker-crash",
                message=(
                    f"lease {lease.id} on node {lease.node!r} expired "
                    f"without a report; job reclaimed"
                ),
                digest=record.digest,
            )
            self.service.resolve_outcome(record, failure, source=lease.node)
            with self._lock:
                self.stats.add("leases_reclaimed")
            reclaimed += 1
        return reclaimed

    # -- cache surface ------------------------------------------------------
    def cache_get(self, digest: str) -> Optional[Dict[str, Any]]:
        if not valid_digest(digest):
            raise ValueError(f"malformed digest: {digest!r}")
        if self.cache is None:
            return None
        entry = self.cache.get(digest)
        with self._lock:
            self.stats.add("cache_hits" if entry is not None else "cache_misses")
        return entry

    def cache_put(self, digest: str, result: Dict[str, Any]) -> bool:
        if not valid_digest(digest):
            raise ValueError(f"malformed digest: {digest!r}")
        if not isinstance(result, dict):
            raise ValueError("'result' must be an object")
        if self.cache is None:
            return False
        self.cache.put(digest, result)
        with self._lock:
            self.stats.add("cache_puts")
        return True

    # -- introspection ------------------------------------------------------
    def alive_count(self, dead_after: Optional[float] = None) -> int:
        horizon = dead_after if dead_after is not None else 3 * self.lease_ttl
        now = self._clock()
        with self._lock:
            return sum(
                1
                for node in self._nodes.values()
                if now - node.last_heartbeat < horizon
            )

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` ``cluster`` document."""
        now = self._clock()
        dead_after = 3 * self.lease_ttl
        with self._lock:
            workers = {
                node.id: {
                    "inflight": len(node.leases),
                    "leases": node.leases_granted,
                    "heartbeat_age": round(now - node.last_heartbeat, 3),
                    "capacity": node.capacity,
                    "alive": (now - node.last_heartbeat) < dead_after,
                }
                for node in self._nodes.values()
            }
            counters = dict(self.stats.counters())
        return {
            "workers": workers,
            "leases_inflight": len(self._leases),
            "steals": counters.get("steals", 0),
            "leases_granted": counters.get("leases_granted", 0),
            "leases_expired": counters.get("leases_expired", 0),
            "leases_reclaimed": counters.get("leases_reclaimed", 0),
            "reports_stale": counters.get("reports_stale", 0),
            "admission_rejected": self.service.admission.rejected,
        }
