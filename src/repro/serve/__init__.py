"""``repro.serve`` — the resilient simulation service.

Turns the one-shot simulation machinery into a long-lived daemon:
an async job queue with priorities and in-flight dedup
(:mod:`repro.serve.queue`), a supervisor providing retries with
exponential backoff, per-job wall-clock timeouts and a circuit breaker
(:mod:`repro.serve.supervisor`), an HTTP JSON API over the stdlib
(:mod:`repro.serve.api`), and a urllib client
(:mod:`repro.serve.client`).  All worker slots share one on-disk
result cache and compiled-trace cache, so a fleet of figure sweeps
against one warm daemon deduplicates work across *clients*, not just
within a batch.  On top of the job path,
:mod:`repro.serve.orchestrate` runs adaptive *experiments*: submit a
parameter space and a successive-halving schedule screens it with
cheap short traces, promoting only the top fraction to full-length
runs.  :mod:`repro.serve.cluster` scales the whole thing past one box:
remote worker agents lease jobs over the same HTTP protocol, read and
write the frontend's one result cache over ``/cluster/cache/<digest>``,
and the frontend applies queue-depth admission control.  See
``docs/service.md``.
"""

from repro.serve.api import DEFAULT_PORT, make_server, run_server
from repro.serve.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    WireVersionError,
)
from repro.serve.cluster import (
    AdmissionController,
    AdmissionError,
    ClusterCacheClient,
    ClusterCoordinator,
    NodeQuarantined,
    TieredCache,
    UnknownNodeError,
    WorkerAgent,
    run_worker,
)
from repro.serve.jobs import (
    WIRE_VERSION,
    JobRecord,
    JobState,
    WireVersionMismatch,
    job_from_wire,
    job_to_wire,
)
from repro.serve.metrics import LatencyHistogram
from repro.serve.orchestrate import (
    ExperimentOrchestrator,
    ExperimentRecord,
    ExperimentSpace,
    ExperimentState,
    HalvingSchedule,
    Objective,
    objective_from_wire,
    schedule_from_wire,
    space_from_wire,
)
from repro.serve.queue import JobQueue
from repro.serve.service import (
    QuarantinedError,
    ServiceConfig,
    SimulationService,
)
from repro.serve.supervisor import CircuitBreaker, RetryPolicy, Supervisor

__all__ = [
    "DEFAULT_PORT",
    "WIRE_VERSION",
    "AdmissionController",
    "AdmissionError",
    "CircuitBreaker",
    "ClusterCacheClient",
    "ClusterCoordinator",
    "ExperimentOrchestrator",
    "ExperimentRecord",
    "ExperimentSpace",
    "ExperimentState",
    "HalvingSchedule",
    "JobQueue",
    "JobRecord",
    "JobState",
    "LatencyHistogram",
    "NodeQuarantined",
    "Objective",
    "QuarantinedError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "SimulationService",
    "Supervisor",
    "TieredCache",
    "UnknownNodeError",
    "WireVersionError",
    "WireVersionMismatch",
    "WorkerAgent",
    "job_from_wire",
    "job_to_wire",
    "make_server",
    "objective_from_wire",
    "run_server",
    "run_worker",
    "schedule_from_wire",
    "space_from_wire",
]
