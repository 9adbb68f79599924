"""Batch execution of simulation points: fan-out, memoisation, counters.

Every paper artifact is a matrix of independent ``(workload × prefetcher
× parameter)`` simulation points.  This module turns each point into a
self-describing, picklable :class:`SimJob` and runs whole batches through
an :class:`Executor` that

* fans jobs out across a ``ProcessPoolExecutor`` (``workers > 1``) with a
  serial in-process fallback (``workers == 1``, or no usable
  ``multiprocessing`` start method) — results are **bit-identical** either
  way, because all randomness is derived from the job spec itself;
* memoises completed jobs in an on-disk :class:`ResultCache` keyed by a
  stable SHA-256 digest of the job spec plus the code version, so repeat
  figure regenerations short-circuit to a JSON read;
* surfaces hit/miss/run counters and wall-clock timings through a
  :class:`repro.common.stats.StatGroup`.

The cache directory defaults to ``~/.cache/repro`` and is overridden by
the ``REPRO_CACHE_DIR`` environment variable.  Entries invalidate
automatically when the package version (``repro.__version__``) or the
cache schema bumps — both are folded into the digest.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.obs.config import ObservabilityConfig
from repro.sim.engine import VECTOR_VERSION, SimulationEngine, SimulationParams
from repro.sim.results import SimResult

#: bump when the cache entry layout (not the simulated semantics) changes
#: schema 2: job specs carry the observability config (timeline samples
#: live in the result, so two runs differing only in ``timeline_interval``
#: must not share a cache entry)
#: schema 3: jobs carry the trace-compile flag and digests fold in the
#: engine fast-path version, so results cached before the compiled trace
#: pipeline existed can never be served for compiled-path runs
#: schema 4: jobs carry the vectorized flag and digests fold in the
#: vector-tier version, so entries produced by an older batch-replay
#: kernel are never served once the kernel changes
#: schema 5: jobs carry the LLC replacement-policy name, so a zoo run
#: ("fifo", "arc", "opt", ...) can never collide with the LRU entry of
#: the same point — and every pre-zoo entry invalidates at once
#: schema 6: the vector tier's batched miss path (VECTOR_VERSION 2)
#: rebuilt the barrier execution sequence; entries produced by the
#: per-barrier ``hierarchy.access`` replay are invalidated wholesale
#: rather than trusting the version fold alone
#: schema 7: the fast loop (VECTOR_VERSION 3) is the only specialised
#: loop, so digests no longer fold in the compiled loop's version
#: schema 8: one entry layout, ``{"schema", "digest", "result"}``, for
#: executor stores and the cluster's digest-keyed puts alike
CACHE_SCHEMA = 8

KwargItems = Tuple[Tuple[str, object], ...]


@dataclass
class JobFailure:
    """Typed per-job failure result.

    Takes a :class:`SimResult`'s slot in a batch when the job could not
    produce one.  ``kind`` is one of

    * ``"worker-crash"`` — the worker process died mid-job (OOM kill,
      segfault, ``os.kill``); the pool was respawned and the rest of the
      batch completed.  Retryable: the crash may be environmental.
    * ``"timeout"`` — the job exceeded its wall-clock budget and its
      worker was killed (:meth:`Executor.run_job_guarded` only).
    * ``"error"`` — the job raised an ordinary exception; deterministic,
      so retrying the identical spec cannot help.
    """

    workload: str
    prefetcher: str
    kind: str
    message: str
    digest: str = ""

    RETRYABLE_KINDS = ("worker-crash", "timeout")

    @classmethod
    def from_exception(cls, job: "SimJob", exc: BaseException) -> "JobFailure":
        return cls(
            workload=job.workload,
            prefetcher=job.prefetcher,
            kind="error",
            message=f"{type(exc).__name__}: {exc}",
            digest=job.digest(),
        )

    @classmethod
    def crash(cls, job: "SimJob", message: str) -> "JobFailure":
        return cls(
            workload=job.workload,
            prefetcher=job.prefetcher,
            kind="worker-crash",
            message=message,
            digest=job.digest(),
        )

    @classmethod
    def timeout(cls, job: "SimJob", seconds: float) -> "JobFailure":
        return cls(
            workload=job.workload,
            prefetcher=job.prefetcher,
            kind="timeout",
            message=f"exceeded wall-clock budget of {seconds:g}s; worker killed",
            digest=job.digest(),
        )

    @property
    def retryable(self) -> bool:
        return self.kind in self.RETRYABLE_KINDS

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class BatchFailure(RuntimeError):
    """Raised by :meth:`Executor.run_jobs` (``return_failures=False``)
    when jobs crashed their workers.  Unlike the raw
    ``BrokenProcessPool`` it replaces, it is raised *after* the rest of
    the batch completed (and was cached), and it names the jobs lost."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        names = ", ".join(
            f"{f.workload}/{f.prefetcher} ({f.kind})" for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} job(s) failed: {names}"
        )


def _canonical(value: object) -> object:
    """Reduce a job-spec value to deterministic, JSON-encodable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _canonical(val) for key, val in sorted(value.items())
        }
    return repr(value)


@dataclass(frozen=True)
class SimJob:
    """One self-describing simulation point.

    Carries everything :func:`execute_job` needs to rebuild the run from
    scratch in any process: the workload *by name* (plus seed and scale —
    workload streams derive all randomness from these, so no RNG state
    crosses process boundaries), the prefetcher configuration, the system,
    and the run length.
    """

    workload: str
    prefetcher: str = "none"
    prefetcher_kwargs: KwargItems = ()
    system: SystemConfig = field(default_factory=SystemConfig)
    params: SimulationParams = field(default_factory=SimulationParams)
    seed: int = 1234
    scale: float = 1.0
    train_at: str = "llc"
    obs: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    #: replay a packed compiled trace (shared across the sweep via the
    #: on-disk trace cache) instead of re-draining the generators; the
    #: two paths produce identical results, but the flag is still part
    #: of the job identity because it selects the execution machinery
    compile: bool = True
    #: permit the engine's fast loop when the run qualifies (False runs
    #: the general loop); like ``compile``, results are identical either
    #: way but the flag is part of the job identity because it selects
    #: execution machinery
    vectorized: bool = True
    #: LLC replacement policy (a ``repro.memsys.replacement`` registry
    #: name); "lru" is the paper's configuration and the native fast path
    replacement: str = "lru"

    @classmethod
    def build(
        cls,
        workload: str,
        prefetcher: str = "none",
        system: Optional[SystemConfig] = None,
        instructions_per_core: int = 100_000,
        warmup_instructions: int = 20_000,
        seed: int = 1234,
        scale: float = 1.0,
        prefetcher_kwargs: Optional[dict] = None,
        train_at: str = "llc",
        obs: Optional[ObservabilityConfig] = None,
        compile: bool = True,
        vectorized: bool = True,
        replacement: str = "lru",
    ) -> "SimJob":
        """Mirror of :func:`repro.sim.runner.run_simulation`'s signature."""
        return cls(
            workload=workload,
            prefetcher=prefetcher,
            prefetcher_kwargs=tuple(sorted((prefetcher_kwargs or {}).items())),
            system=system if system is not None else SystemConfig(),
            params=SimulationParams(
                instructions_per_core=instructions_per_core,
                warmup_instructions=warmup_instructions,
            ),
            seed=seed,
            scale=scale,
            train_at=train_at,
            obs=obs if obs is not None else ObservabilityConfig(),
            compile=compile,
            vectorized=vectorized,
            replacement=replacement,
        )

    def with_instructions(
        self,
        instructions_per_core: int,
        warmup_instructions: Optional[int] = None,
    ) -> "SimJob":
        """This job at a different instruction budget (same everything else).

        The orchestrated screening path derives cheap short-trace
        variants of a full-length job spec this way; because only
        ``params`` changes, the derived job digests differently from the
        original while the full-length job stays byte-identical to one
        built directly.  ``warmup_instructions`` defaults to scaling the
        current warmup proportionally (and is clamped below the new
        budget, which :class:`SimulationParams` requires).
        """
        if warmup_instructions is None:
            warmup_instructions = (
                self.params.warmup_instructions
                * instructions_per_core
                // self.params.instructions_per_core
            )
        warmup_instructions = max(
            0, min(warmup_instructions, instructions_per_core - 1)
        )
        return replace(
            self,
            params=SimulationParams(
                instructions_per_core=instructions_per_core,
                warmup_instructions=warmup_instructions,
            ),
        )

    def spec(self) -> Dict[str, object]:
        """The canonical, JSON-encodable description of this job."""
        return {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "prefetcher_kwargs": _canonical(dict(self.prefetcher_kwargs)),
            "system": _canonical(asdict(self.system)),
            "params": _canonical(asdict(self.params)),
            "seed": self.seed,
            "scale": self.scale,
            "train_at": self.train_at,
            # The observability config shapes the *result* (timeline
            # samples) and the run's side effects (trace files), so it
            # is part of the identity of a cached entry.
            "obs": _canonical(asdict(self.obs)),
            "compile": self.compile,
            "vectorized": self.vectorized,
            "replacement": self.replacement,
        }

    @property
    def cacheable(self) -> bool:
        """False when the run has side effects a cached result can't replay.

        A ``--trace`` job must execute for real every time: serving it
        from the cache would return counters without (re)writing the
        trace file the caller asked for.
        """
        return not self.obs.has_side_effects

    def digest(self) -> str:
        """Stable cache key: job spec + code version + cache schema.

        The fast loop's version rides along so a change to it
        invalidates every entry it could have produced.
        """
        from repro import __version__

        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "version": __version__,
                "vector": VECTOR_VERSION,
                "job": self.spec(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _job_workload(job: SimJob):
    """The job's workload, compiled to a packed trace when requested.

    Compilation keys the on-disk trace cache with the job's full trace
    identity (name, seed, scale, cores, budget), so the N prefetcher
    configs of a sweep that share one workload compile it exactly once;
    later jobs — in this process or any worker — ``mmap`` the arena.
    """
    from repro.workloads.registry import make_workload

    workload = make_workload(job.workload, seed=job.seed, scale=job.scale)
    if job.compile:
        from repro.sim.compile import compile_workload

        workload = compile_workload(
            workload,
            records_per_core=job.params.instructions_per_core,
            scale=job.scale,
        )
    return workload


def execute_job(job: SimJob) -> SimResult:
    """Run one job in the current process.

    Module-level (not a method) so worker processes can unpickle it under
    both the ``fork`` and ``spawn`` start methods.  The workload is
    rebuilt from ``(name, seed, scale)``, and all stream RNGs are seeded
    from those values, so the result is a pure function of the job spec.
    """
    engine = SimulationEngine(
        workload=_job_workload(job),
        prefetcher=job.prefetcher,
        system=job.system,
        params=job.params,
        prefetcher_kwargs=dict(job.prefetcher_kwargs) or None,
        train_at=job.train_at,
        obs=job.obs,
        vectorized=job.vectorized,
        replacement=job.replacement,
    )
    return engine.run()


def execute_job_checked(job: SimJob) -> SimResult:
    """Run one job with a strict invariant checker riding the event stream.

    Module-level for the same pickling reasons as :func:`execute_job`.
    The run's trace sink becomes a tee of the caller-requested sink (if
    any) and a :class:`~repro.check.invariants.InvariantChecker` in
    strict mode, so any conservation-law violation aborts the batch with
    an :class:`~repro.check.invariants.InvariantViolation` instead of
    silently producing wrong numbers.
    """
    from repro.check.invariants import InvariantChecker
    from repro.obs.sinks import TeeSink, build_sink

    checker = InvariantChecker(strict=True)
    obs_sink = build_sink(job.obs)
    sink = checker if obs_sink is None else TeeSink([checker, obs_sink])
    engine = SimulationEngine(
        workload=_job_workload(job),
        prefetcher=job.prefetcher,
        system=job.system,
        params=job.params,
        prefetcher_kwargs=dict(job.prefetcher_kwargs) or None,
        train_at=job.train_at,
        obs=job.obs,
        sink=sink,
        vectorized=job.vectorized,
        replacement=job.replacement,
    )
    checker.attach(engine.hierarchy)
    try:
        result = engine.run()
    finally:
        if obs_sink is not None:
            obs_sink.close()
    checker.finalize()
    return result


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Digest-addressed JSON store of completed :class:`SimJob` results.

    One file per digest under ``<root>/results/<digest[:2]>/<digest>.json``
    holding ``{"schema", "digest", "result"}``.  :meth:`get`/:meth:`put`
    speak raw result dicts by digest (the cluster's
    ``/cluster/cache/<digest>`` routes); :meth:`load`/:meth:`store` are
    the executor's job-keyed view of the same entries.  Writes are atomic
    (temp file + ``os.replace``), so concurrent writers never expose a
    torn entry.  An entry that is unreadable, carries another schema or
    digest, or holds no result dict is deleted and reads as a miss.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, digest: str) -> Path:
        return self.root / "results" / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored result dict for ``digest``, or ``None``."""
        path = self.path_for(digest)
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return None  # plain miss: no entry
        # From here on the entry *exists*; anything unreadable about it is
        # corruption (torn write, truncation, foreign bytes) and mirrors
        # the trace cache's torn-file=miss policy: delete it so the next
        # put starts clean, and report a miss instead of raising.
        try:
            with handle:
                entry = json.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != CACHE_SCHEMA
                or entry.get("digest") != digest
                or not isinstance(entry.get("result"), dict)
            ):
                raise ValueError("schema or digest mismatch, or no result")
            return entry["result"]
        except (OSError, ValueError):
            _unlink_quietly(path)
            return None

    def put(self, digest: str, result: Dict[str, object]) -> Path:
        """Store ``result`` under ``digest``; returns the entry's path."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "digest": digest, "result": result}
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            _unlink_quietly(tmp_name)
            raise
        return path

    def load(self, job: SimJob) -> Optional[SimResult]:
        digest = job.digest()
        result = self.get(digest)
        if result is None:
            return None
        try:
            return SimResult.from_dict(result)
        except (ValueError, TypeError, KeyError):
            _unlink_quietly(self.path_for(digest))
            return None

    def store(self, job: SimJob, result: SimResult) -> Path:
        return self.put(job.digest(), result.to_dict())


def _unlink_quietly(path: Union[str, os.PathLike]) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool's worker processes (timeout/interrupt path).

    ``shutdown(cancel_futures=True)`` alone would *wait* for the running
    job — exactly what a wall-clock kill or a Ctrl-C cleanup must not do.
    Reaches into the pool's process table (no public API exists) and
    SIGTERMs each worker; the subsequent ``shutdown(wait=True)`` then
    reaps them immediately, so no orphans outlive the call.

    The snapshot must happen *before* ``shutdown()``: even with
    ``wait=False`` the executor drops its ``_processes`` reference as
    part of shutdown, so reading it afterwards finds nothing to kill.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - cancel_futures is 3.9+
        pool.shutdown(wait=False)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                pass


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """Prefer ``fork`` (cheap, shares loaded modules), fall back to
    ``spawn``; ``None`` means the platform supports neither and the
    executor must run serially."""
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform dependent
            continue
    return None  # pragma: no cover - platform dependent


class Executor:
    """Runs batches of :class:`SimJob`\\ s with caching and parallelism.

    ``workers=1`` executes in-process (no pool, no pickling); ``workers>1``
    fans out over a process pool.  Either way, identical jobs within one
    batch are executed once, and an attached :class:`ResultCache` is
    consulted first and populated afterwards.

    ``stats`` counters: ``jobs``, ``cache_hits``, ``cache_misses``,
    ``cache_skipped`` (uncacheable side-effecting jobs), ``executed``,
    ``run_seconds`` (wall-clock of the execution phase), ``failures`` /
    ``worker_crashes`` / ``timeouts`` (jobs that produced a
    :class:`JobFailure` instead of a result), and — for
    in-process execution — ``trace_compile_hits``/``trace_compile_misses``
    from the compiled-trace cache (worker processes report theirs via
    the ``repro.sim.compile`` log instead; counters do not cross the
    process boundary).

    ``check=True`` runs every job through :func:`execute_job_checked`
    (strict runtime invariant checking) and bypasses the result cache in
    both directions — a cached result would skip the very checks the
    caller asked for, and a checked run proves nothing about future
    uncached replays.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        stats: Optional[StatGroup] = None,
        check: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self.check = check
        self.stats = stats if stats is not None else StatGroup("executor")

    def run_job(self, job: SimJob) -> SimResult:
        return self.run_jobs([job])[0]

    def run_jobs(
        self, jobs: Sequence[SimJob], return_failures: bool = False
    ) -> List[Union[SimResult, JobFailure]]:
        """Execute a batch; results are returned in input order.

        A worker process dying mid-job (OOM kill, segfault) does **not**
        lose the batch: the affected job is isolated and reported as a
        :class:`JobFailure`, the pool is respawned, and every other job
        still completes (and is cached).  With ``return_failures=False``
        (the default) such failures — and only such failures — are then
        raised as one :class:`BatchFailure`; ordinary exceptions from a
        job propagate unchanged.  With ``return_failures=True`` both
        crashes and ordinary exceptions come back in-slot as typed
        :class:`JobFailure` values (the service supervisor's retry path).
        """
        jobs = list(jobs)
        self.stats.add("jobs", len(jobs))
        results: List[Optional[Union[SimResult, JobFailure]]] = [None] * len(jobs)

        # Cache probe + intra-batch dedup: map each distinct digest to the
        # slots awaiting its result.
        pending: "Dict[str, List[int]]" = {}
        pending_jobs: List[SimJob] = []
        for index, job in enumerate(jobs):
            digest = job.digest()
            if digest in pending:
                pending[digest].append(index)
                continue
            if self.cache is not None:
                if self.check or not job.cacheable:
                    # Side-effecting jobs (event tracing) must run for
                    # real: a cached result cannot rewrite the trace.
                    # Checked jobs likewise: the invariant checker only
                    # sees events from an actual execution.
                    self.stats.add("cache_skipped")
                else:
                    hit = self.cache.load(job)
                    if hit is not None:
                        self.stats.add("cache_hits")
                        results[index] = hit
                        continue
                    self.stats.add("cache_misses")
            pending[digest] = [index]
            pending_jobs.append(job)

        if pending_jobs:
            from repro.sim.compile import compile_counters

            compiles_before = compile_counters()
            start = time.perf_counter()
            executed = self._execute(pending_jobs, collect=return_failures)
            self.stats.add("run_seconds", time.perf_counter() - start)
            self.stats.add("executed", len(pending_jobs))
            for counter, value in compile_counters().items():
                delta = value - compiles_before[counter]
                if delta:
                    self.stats.add(counter, delta)
            for job, result in zip(pending_jobs, executed):
                if isinstance(result, JobFailure):
                    self.stats.add("failures")
                elif self.cache is not None and job.cacheable and not self.check:
                    self.cache.store(job, result)
                for index in pending[job.digest()]:
                    results[index] = result
        if not return_failures:
            failures = [r for r in results if isinstance(r, JobFailure)]
            if failures:
                raise BatchFailure(failures)
        return results  # type: ignore[return-value]

    #: sentinel distinguishing "no cache override" from "override with None"
    _CACHE_DEFAULT = object()

    def run_job_guarded(
        self,
        job: SimJob,
        timeout: Optional[float] = None,
        cache=_CACHE_DEFAULT,
    ) -> Union[SimResult, JobFailure]:
        """Run one job under the full robustness envelope; never raises.

        The job executes in a disposable single-process pool, so a crash
        is unambiguously attributable and ``timeout`` (wall-clock
        seconds) is enforceable: an overdue worker is killed, not just
        abandoned, and the outcome is a typed :class:`JobFailure` of kind
        ``"timeout"``.  The result cache is consulted and populated
        exactly as in :meth:`run_jobs`.  This is the hook
        :mod:`repro.serve` dispatches through — one call per queue slot,
        each slot owning its own :class:`Executor` so counters need no
        locks.  When the platform has no multiprocessing start method the
        job runs in-process: crashes then take the whole process (nothing
        to isolate) and the timeout cannot be enforced.

        ``cache`` overrides the executor's own cache for this one call —
        anything with ``ResultCache``'s ``load``/``store`` shape works
        (``None`` disables caching for the call).  Cluster worker agents
        pass a lease-scoped :class:`~repro.serve.cluster.shard.TieredCache`
        here so a single executor can serve leases whose cache topology
        depends on the frontend that granted them.
        """
        if cache is Executor._CACHE_DEFAULT:
            cache = self.cache
        self.stats.add("jobs")
        if cache is not None and not self.check and job.cacheable:
            hit = cache.load(job)
            if hit is not None:
                self.stats.add("cache_hits")
                return hit
            self.stats.add("cache_misses")
        elif cache is not None:
            self.stats.add("cache_skipped")

        runner = execute_job_checked if self.check else execute_job
        context = _pool_context()
        start = time.perf_counter()
        try:
            if context is None:  # pragma: no cover - platform dependent
                try:
                    result: Union[SimResult, JobFailure] = runner(job)
                except Exception as exc:
                    result = JobFailure.from_exception(job, exc)
            else:
                result = self._run_guarded_in_pool(runner, job, timeout, context)
        finally:
            self.stats.add("run_seconds", time.perf_counter() - start)
        self.stats.add("executed")
        if isinstance(result, JobFailure):
            self.stats.add("failures")
            if result.kind == "worker-crash":
                self.stats.add("worker_crashes")
            elif result.kind == "timeout":
                self.stats.add("timeouts")
        elif cache is not None and job.cacheable and not self.check:
            cache.store(job, result)
        return result

    def _run_guarded_in_pool(
        self, runner, job: SimJob, timeout: Optional[float], context
    ) -> Union[SimResult, JobFailure]:
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
        try:
            future = pool.submit(runner, job)
            try:
                return future.result(timeout)
            except FutureTimeoutError:
                _terminate_pool(pool)
                return JobFailure.timeout(job, timeout or 0.0)
            except BrokenExecutor as exc:
                return JobFailure.crash(
                    job, f"worker process died mid-job ({exc or 'no detail'})"
                )
            except Exception as exc:
                return JobFailure.from_exception(job, exc)
        except BaseException:
            # KeyboardInterrupt/SystemExit: leave no orphaned workers or
            # half-written cache entries behind (stores are atomic, and
            # nothing reaches the cache from here).
            _terminate_pool(pool)
            raise
        finally:
            pool.shutdown(wait=True)

    def _execute(
        self, jobs: List[SimJob], collect: bool = False
    ) -> List[Union[SimResult, JobFailure]]:
        runner = execute_job_checked if self.check else execute_job
        context = _pool_context() if self.workers > 1 else None
        if context is None or len(jobs) == 1:
            results: List[Union[SimResult, JobFailure]] = []
            for job in jobs:
                try:
                    results.append(runner(job))
                except Exception as exc:
                    if not collect:
                        raise
                    results.append(JobFailure.from_exception(job, exc))
            return results
        return self._execute_pooled(runner, jobs, context, collect)

    def _execute_pooled(
        self, runner, jobs: List[SimJob], context, collect: bool
    ) -> List[Union[SimResult, JobFailure]]:
        """Pool fan-out with worker-crash isolation.

        Round 1 runs the whole batch across ``self.workers`` processes.
        If the pool breaks (a worker died), every *unfinished* job is a
        suspect — the pool API cannot say which one was on the dying
        worker — so suspects are replayed one per fresh single-process
        pool: a replay that breaks *its* pool convicts exactly that job
        (``JobFailure.crash``), and innocent bystanders complete.
        Crashes are rare, so the serialised replay tail is a price paid
        only on the broken path.
        """
        slots: List[Optional[Union[SimResult, JobFailure]]] = [None] * len(jobs)
        suspects: List[int] = []
        workers = min(self.workers, len(jobs))
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            futures = [(i, pool.submit(runner, job)) for i, job in enumerate(jobs)]
            for i, future in futures:
                try:
                    slots[i] = future.result()
                except BrokenExecutor:
                    suspects.append(i)
                except Exception as exc:
                    if not collect:
                        raise
                    slots[i] = JobFailure.from_exception(jobs[i], exc)
        except BaseException:
            _terminate_pool(pool)
            raise
        finally:
            pool.shutdown(wait=True)

        for i in suspects:
            job = jobs[i]
            replay_pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
            try:
                future = replay_pool.submit(runner, job)
                try:
                    slots[i] = future.result()
                except BrokenExecutor:
                    self.stats.add("worker_crashes")
                    slots[i] = JobFailure.crash(
                        job, "worker process died mid-job; batch respawned"
                    )
                except Exception as exc:
                    if not collect:
                        raise
                    slots[i] = JobFailure.from_exception(job, exc)
            except BaseException:
                _terminate_pool(replay_pool)
                raise
            finally:
                replay_pool.shutdown(wait=True)
        return slots  # type: ignore[return-value]
