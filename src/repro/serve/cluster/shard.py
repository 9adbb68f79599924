"""The worker side of the cluster result cache, and the digest check.

The frontend stores every result in its one
:class:`~repro.sim.executor.ResultCache`: local executor slots read and
write it directly, and ``GET/PUT /cluster/cache/<digest>`` serve the
same instance to worker agents.  This module holds the agents' handles
onto it:

* :class:`ClusterCacheClient` — ``ResultCache``-shaped ``load``/``store``
  over the frontend's ``/cluster/cache/<digest>`` routes, so
  :meth:`~repro.sim.executor.Executor.run_job_guarded` accepts it as a
  lease-scoped override;
* :class:`TieredCache` — the worker's local disk in front of the
  frontend's store, which it only reads: a local hit never touches the
  network, and a remote hit or an executed result waits for
  :meth:`TieredCache.flush`, which the agent calls after its report.
  The report is the job's one write to the frontend, so the next
  identical job on *any* node, or on a frontend slot, reads the result
  instead of simulating it.

Cache traffic is best-effort by design: an unreachable frontend turns
``load`` into a miss, never into a failed job.  Nothing in ``src/``
calls ``ClusterCacheClient.store`` (``PUT /cluster/cache/<digest>``);
it stays while the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.executor import SimJob
from repro.sim.results import SimResult

#: sanity bound on digests accepted over the wire (sha256 hex)
DIGEST_HEX_LENGTH = 64


def valid_digest(digest: str) -> bool:
    """True for a well-formed sha256 hex digest (the only key shape the
    cache routes accept; anything else is a 400, not a file path)."""
    if not isinstance(digest, str) or len(digest) != DIGEST_HEX_LENGTH:
        return False
    try:
        int(digest, 16)
    except ValueError:
        return False
    return True


class ClusterCacheClient:
    """``ResultCache``-shaped handle over ``/cluster/cache/<digest>``.

    ``client`` is a :class:`~repro.serve.client.ServiceClient` (or
    anything with its ``cache_get``/``cache_put`` methods).  Transport
    and server errors degrade to miss/no-op — the cache must never turn
    a runnable job into a failed one.
    """

    def __init__(self, client) -> None:
        self.client = client

    def load(self, job: SimJob) -> Optional[SimResult]:
        try:
            result = self.client.cache_get(job.digest())
        except Exception:
            return None
        if not isinstance(result, dict):
            return None
        try:
            return SimResult.from_dict(result)
        except (ValueError, TypeError, KeyError):
            return None

    def store(self, job: SimJob, result: SimResult) -> None:
        try:
            self.client.cache_put(job.digest(), result.to_dict())
        except Exception:
            pass


class TieredCache:
    """Local-disk tier in front of the frontend's result cache.

    The lease-scoped cache handle a worker hands to
    :meth:`~repro.sim.executor.Executor.run_job_guarded`: ``load``
    probes the worker-local store first, then the frontend.  The
    frontend tier is read-through: ``store`` and a remote hit's
    backfill only hold their result for the local tier, and the agent
    writes it with :meth:`flush` once its report has gone out, so the
    report is the job's one write to the frontend and no local write
    delays it.
    """

    def __init__(self, local, remote) -> None:
        self.local = local
        self.remote = remote
        #: ``(job, result)`` held for the local tier until :meth:`flush`
        self._held: Optional[Tuple[SimJob, SimResult]] = None

    def load(self, job: SimJob) -> Optional[SimResult]:
        if self.local is not None:
            hit = self.local.load(job)
            if hit is not None:
                return hit
        if self.remote is None:
            return None
        hit = self.remote.load(job)
        if hit is not None:
            self.store(job, hit)
        return hit

    def store(self, job: SimJob, result: SimResult) -> None:
        if self.local is not None:
            self._held = (job, result)

    def flush(self) -> None:
        """Write the held result to the local tier; an ``OSError`` (disk
        full) propagates, and the result is not held again."""
        held, self._held = self._held, None
        if held is not None:
            self.local.store(*held)
