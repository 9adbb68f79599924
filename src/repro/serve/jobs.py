"""Job records and the service's JSON wire format.

A :class:`JobRecord` is the service-side life of one submitted
:class:`~repro.sim.executor.SimJob`: identity, priority, state machine,
attempt count, timestamps, and eventually a result or a typed error.
Records are what ``GET /jobs/<id>`` returns and what the drain path
persists to disk, so everything here round-trips through plain JSON.

The wire format (:func:`job_to_wire` / :func:`job_from_wire`) mirrors
``SimJob.build``'s keyword surface: flat primitives for the common
fields, nested objects for the system/observability configs.  Nested
dataclasses are rebuilt field-by-field (they are all frozen bags of
primitives), so a client can POST a fully custom
:class:`~repro.common.config.SystemConfig` without the service trusting
anything beyond dataclass constructors.
"""

from __future__ import annotations

import dataclasses
import math
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, get_type_hints

from repro.common.config import SystemConfig
from repro.memsys.replacement import available_replacements
from repro.obs.config import ObservabilityConfig
from repro.sim.engine import check_runnable
from repro.sim.executor import SimJob
from repro.sim.results import SimResult
from repro.workloads.registry import make_workload

#: version of the job/lease JSON wire format.  Bump on any change that
#: an older peer would misinterpret (renamed fields, changed units, new
#: required keys).  Mismatched peers are rejected with a 409 at the API
#: layer — a mixed-version cluster must fail fast and loudly, not
#: corrupt results quietly.  Version 3 drops ``compile`` and
#: ``vectorized``: every served job runs the production path, and a
#: version-2 peer's specs carry both fields, which this version
#: refuses as unknown.
WIRE_VERSION = 3


class WireVersionMismatch(ValueError):
    """A peer speaks a different job/lease wire format version."""

    def __init__(self, theirs: Any) -> None:
        self.theirs = theirs
        self.ours = WIRE_VERSION
        super().__init__(
            f"wire version mismatch: peer speaks {theirs!r}, "
            f"this node speaks {WIRE_VERSION}; upgrade the older side"
        )


class JobState(str, Enum):
    """Service-side lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def in_flight(self) -> bool:
        """True while the job can still be deduplicated against."""
        return self in (JobState.PENDING, JobState.RUNNING)

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


def new_job_id() -> str:
    """A short, URL-safe, unguessable job id."""
    return uuid.uuid4().hex[:12]


@dataclass
class JobRecord:
    """One submitted job's service-side state.

    ``digest`` is the job's cache digest — the dedup key: two records
    with equal digests describe bit-identical simulations.  ``not_before``
    (monotonic-clock seconds) gates retry backoff: the queue will not
    hand the record to a worker slot before that instant.
    """

    job: SimJob
    id: str = field(default_factory=new_job_id)
    priority: int = 0
    state: JobState = JobState.PENDING
    attempts: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    not_before: float = 0.0
    result: Optional[SimResult] = None
    error: Optional[Dict[str, Any]] = None
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = self.job.digest()

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` body (and the persistence format)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "priority": self.priority,
            "attempts": self.attempts,
            "digest": self.digest,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "job": job_to_wire(self.job),
            "error": self.error,
        }
        if include_result and self.result is not None:
            out["result"] = self.result.to_dict()
            out["summary"] = {
                k: round(v, 6) for k, v in self.result.summary().items()
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a persisted record (drain-file restore path)."""
        record = cls(
            job=job_from_wire(data["job"]),
            id=data["id"],
            priority=int(data.get("priority", 0)),
            state=JobState(data.get("state", "pending")),
            attempts=int(data.get("attempts", 0)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            error=data.get("error"),
        )
        if data.get("result") is not None:
            record.result = SimResult.from_dict(data["result"])
        return record


# ---------------------------------------------------------------------------
# SimJob <-> JSON wire format
# ---------------------------------------------------------------------------


def _dataclass_from_dict(cls, data: Dict[str, Any]):
    """Recursively hydrate a dataclass from a plain dict.

    Unknown keys are rejected (a typo in a POST body should be a 400,
    not a silently ignored knob); nested dataclass fields recurse.
    """
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {sorted(unknown)}"
        )
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        target = hints.get(f.name)
        if dataclasses.is_dataclass(target) and isinstance(value, dict):
            value = _dataclass_from_dict(target, value)
        kwargs[f.name] = value
    return cls(**kwargs)


def job_to_wire(job: SimJob) -> Dict[str, Any]:
    """A ``SimJob`` as the POST/persistence JSON object."""
    return {
        "wire_version": WIRE_VERSION,
        "workload": job.workload,
        "prefetcher": job.prefetcher,
        "prefetcher_kwargs": dict(job.prefetcher_kwargs),
        "instructions": job.params.instructions_per_core,
        "warmup": job.params.warmup_instructions,
        "seed": job.seed,
        "scale": job.scale,
        "train_at": job.train_at,
        "replacement": job.replacement,
        "system": dataclasses.asdict(job.system),
        "obs": {"timeline_interval": job.obs.timeline_interval},
    }


def job_from_wire(payload: Dict[str, Any]) -> SimJob:
    """Inverse of :func:`job_to_wire`; validates as it builds.

    ``system`` may be omitted (paper defaults), the string
    ``"experiment"`` (the scaled-down experiment hierarchy every figure
    uses), or a full nested object.  Trace-file observability is
    rejected: a trace path is a *server-local* side effect that makes a
    job uncacheable and undeduplicatable, which is exactly what a shared
    daemon must not let one client impose on another.

    A spec no worker could run is rejected here too, before anything
    queues it: the workload is built with ``make_workload`` (which only
    sizes its generators; workloads added with ``register_workload``
    pass) and checked with the engine's :func:`check_runnable`.  That
    binds ``prefetcher_kwargs`` to the prefetcher's signature without
    building it, since only a guarded worker may allocate the table
    sizes a client asks for.  Every rejection is a ``ValueError``, also
    a value some constructor cannot compute with, such as 0 LLC ways.
    """
    try:
        return _job_from_wire(payload)
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from None


def _job_from_wire(payload: Dict[str, Any]) -> SimJob:
    if not isinstance(payload, dict):
        raise ValueError(f"job spec must be an object, got {type(payload).__name__}")
    payload = dict(payload)
    known = {
        "wire_version", "workload", "prefetcher", "prefetcher_kwargs",
        "instructions", "warmup", "seed", "scale", "train_at",
        "replacement", "system", "obs",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown job field(s): {sorted(unknown)}")
    # absent = a hand-written spec: read as the current version, with
    # every omitted field at its SimJob.build default
    theirs = payload.get("wire_version", WIRE_VERSION)
    if theirs != WIRE_VERSION:
        raise WireVersionMismatch(theirs)
    workload = payload.get("workload")
    if not workload or not isinstance(workload, str):
        raise ValueError("job spec needs a 'workload' name")
    prefetcher = str(payload.get("prefetcher", "none"))
    replacement = str(payload.get("replacement", "lru"))
    if replacement not in available_replacements():
        raise ValueError(
            f"unknown replacement policy {replacement!r}; "
            f"available: {available_replacements()}"
        )
    train_at = str(payload.get("train_at", "llc"))
    if train_at not in ("llc", "l1"):
        raise ValueError(f"train_at must be 'llc' or 'l1', got {train_at!r}")
    scale = float(payload.get("scale", 1.0))
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    # raises on a name nothing registered
    built = make_workload(workload, scale=scale)

    system = payload.get("system")
    if system is None:
        system_cfg = SystemConfig()
    elif system == "experiment":
        from repro.experiments.common import experiment_system

        system_cfg = experiment_system()
    elif isinstance(system, dict):
        system_cfg = _dataclass_from_dict(SystemConfig, system)
    else:
        raise ValueError(
            "'system' must be an object or the preset name 'experiment'"
        )

    obs_payload = payload.get("obs") or {}
    if not isinstance(obs_payload, dict):
        raise ValueError("'obs' must be an object")
    if obs_payload.get("trace_path"):
        raise ValueError(
            "trace_path is not accepted over the service API: traces are "
            "server-local side effects; run 'bingo-sim run --trace' instead"
        )
    obs = ObservabilityConfig(
        timeline_interval=int(obs_payload.get("timeline_interval", 0) or 0)
    )

    kwargs = payload.get("prefetcher_kwargs") or {}
    if not isinstance(kwargs, dict):
        raise ValueError("'prefetcher_kwargs' must be an object")
    # raises on a prefetcher name nothing registered, too
    check_runnable(built, system_cfg, prefetcher, kwargs)

    return SimJob.build(
        workload=workload,
        prefetcher=prefetcher,
        system=system_cfg,
        instructions_per_core=int(payload.get("instructions", 100_000)),
        warmup_instructions=int(payload.get("warmup", 20_000)),
        seed=int(payload.get("seed", 1234)),
        scale=scale,
        prefetcher_kwargs=kwargs,
        train_at=train_at,
        obs=obs,
        replacement=replacement,
    )
