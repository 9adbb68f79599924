"""``repro.serve.cluster`` — the multi-node tier of the service.

One frontend daemon (``bingo-sim serve``) owns the queue, the
supervisor, and the result cache; any number of **worker agents**
(``bingo-sim worker --connect URL``) register with it, long-poll for
job *leases* over the existing HTTP JSON protocol, execute them
through their local :class:`~repro.sim.executor.Executor`, and report
results back.  Everything a single-node deployment relied on
generalises per node:

* **leases** carry a deadline; a worker that stops heartbeating loses
  its leases and the jobs are reclaimed through the ordinary retry
  path (:mod:`repro.serve.cluster.coordinator`);
* the per-digest circuit breaker gains a per-*node* sibling, so a box
  that keeps crashing or timing out stops being offered work;
* the frontend's :class:`~repro.sim.executor.ResultCache` is the one
  result store: agents read and write it over
  ``/cluster/cache/<digest>`` behind a local-disk tier
  (:mod:`repro.serve.cluster.shard`), so a re-run anywhere, on an
  agent or on a frontend slot, dedupes;
* idle workers **steal** from the backoff-gated backlog — a retry
  delay exists to protect the node that just failed the job, not to
  idle a healthy peer;
* the frontend applies **queue-depth-aware admission control**:
  beyond a configurable bound, ``POST /jobs`` answers 429 with a
  ``Retry-After`` derived from the observed drain rate.

Results are byte-identical to single-node runs — the job wire format,
digests, and execution machinery are exactly the ones
:mod:`repro.serve` already uses; the cluster only moves *where* a job
runs.  ``tools/cluster_smoke.py`` proves that end to end.  See
``docs/service.md`` (§Cluster).
"""

from repro.serve.cluster.agent import WorkerAgent, run_worker
from repro.serve.cluster.coordinator import (
    AdmissionController,
    AdmissionError,
    ClusterCoordinator,
    Lease,
    NodeQuarantined,
    UnknownNodeError,
    WorkerNode,
)
from repro.serve.cluster.shard import ClusterCacheClient, TieredCache

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "ClusterCacheClient",
    "ClusterCoordinator",
    "Lease",
    "NodeQuarantined",
    "TieredCache",
    "UnknownNodeError",
    "WorkerAgent",
    "WorkerNode",
    "run_worker",
]
