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
within a batch.  On top of the job path, a client runs adaptive
*experiments* (:func:`repro.serve.orchestrate.run_halving`): a
successive-halving schedule screens a parameter space with cheap short
traces, submitting only the top fraction of each round to the next,
up to full-length runs.  :mod:`repro.serve.cluster` scales the whole
thing past one box: remote worker agents lease jobs over the same HTTP
protocol, read and write the frontend's one result cache over
``/cluster/cache/<digest>``, and the frontend applies queue-depth
admission control.  See ``docs/service.md``.
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
    ExperimentSpace,
    HalvingSchedule,
    Objective,
    OrchestrationError,
    run_halving,
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
    "ExperimentSpace",
    "HalvingSchedule",
    "JobQueue",
    "JobRecord",
    "JobState",
    "LatencyHistogram",
    "NodeQuarantined",
    "Objective",
    "OrchestrationError",
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
    "run_halving",
    "run_server",
    "run_worker",
    "space_from_wire",
]
