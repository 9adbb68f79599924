"""Batch execution of simulation points: fan-out, memoisation, counters.

Every paper artifact is a matrix of independent ``(workload × prefetcher
× parameter)`` simulation points.  This module turns each point into a
self-describing, picklable :class:`SimJob` and runs whole batches through
an :class:`Executor` that

* runs a batch in-process (``workers == 1``) or fans it out over warm
  worker processes, one job in flight per worker (``workers > 1``) —
  results are **bit-identical** either way, because all randomness is
  derived from the job spec itself;
* runs the service's jobs one at a time on a long-lived warm worker
  (:meth:`Executor.run_job_guarded`) that kills overdue jobs;
* turns a worker's death into a typed failure for exactly the job that
  worker held, on both paths;
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
import pickle
import signal
import tempfile
import threading
import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from multiprocessing.connection import Connection, wait
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
#: ("fifo", "arc", ...) can never collide with the LRU entry of
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
      segfault, ``os.kill``); the worker was replaced and the rest of
      the batch completed.  Retryable: the crash may be environmental.
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
    when jobs crashed their workers.  It is raised *after* the rest of
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
    if isinstance(value, Enum):  # by value, as JSON carries it
        return _canonical(value.value)
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
    #: the reference selectors: ``compile=False`` replays the workload
    #: generators instead of a packed compiled trace, ``vectorized=False``
    #: keeps the engine's general loop.  Results are identical either
    #: way.  No user-facing surface (CLI, runner, wire) sets them; only
    #: tests and the benchmark's reference runs pick them, through
    #: ``dataclasses.replace``.  They stay in :meth:`spec` because the
    #: benchmark's kept reference keys hash it.
    compile: bool = True
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


def _engine(job: SimJob, sink=None) -> SimulationEngine:
    return SimulationEngine(
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


def execute_job(job: SimJob) -> SimResult:
    """Run one job in the current process.

    Module-level (not a method) so worker processes can unpickle it under
    both the ``fork`` and ``spawn`` start methods.  The workload is
    rebuilt from ``(name, seed, scale)``, and all stream RNGs are seeded
    from those values, so the result is a pure function of the job spec.
    """
    return _engine(job).run()


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
    engine = _engine(job, sink)
    checker.attach(engine.hierarchy)
    try:
        result = engine.run()
    finally:
        if obs_sink is not None:
            obs_sink.close()
    try:
        checker.finalize()
    finally:
        # the checker and the hierarchy's sink reference each other:
        # unbound, the finished run is freed by reference counting
        checker.attach(None)
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
                # json.dump streams through the pure-Python encoder;
                # dumps takes the C one and writes the same text
                handle.write(json.dumps(entry))
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


#: held across a warm worker's fork and the parent's close of the
#: worker's pipe end: a sibling forked in between would inherit that end
#: and hide the worker's death (EOF) from the parent
_FORK_LOCK = threading.Lock()


def _new_worker() -> Tuple[multiprocessing.Process, Connection]:
    """Start a warm worker running :func:`_warm_worker_loop`; returns the
    process and the parent's end of its pipe.  Prefers ``fork`` (cheap,
    shares loaded modules) and falls back to ``spawn``, which every
    platform has."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        context = multiprocessing.get_context("spawn")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_warm_worker_loop,
        args=(child_end, parent_end, os.getpid()),
        name="executor-worker",
        daemon=True,
    )
    with _FORK_LOCK:
        process.start()
        child_end.close()
    return process, parent_end


def _portable(exc: Exception) -> Exception:
    """``exc`` if it crosses the pipe intact (pickling and unpickling it
    keep its message), else a ``RuntimeError`` carrying its
    ``"Type: message"``."""
    try:
        intact = str(pickle.loads(pickle.dumps(exc))) == str(exc)
    except Exception:
        intact = False
    return exc if intact else RuntimeError(f"{type(exc).__name__}: {exc}")


def _warm_worker_loop(conn, parent_end, parent: int) -> None:
    """Body of an executor's warm worker process (single-threaded).

    Runs ``(runner, job)`` requests from ``conn`` one at a time and
    answers ``("ok", result)`` or ``("error", exception)``.  Leaves when
    the pipe reports EOF or when ``os.getppid()`` is no longer
    ``parent``, the pid of the process that started it, so a SIGKILLed
    owner leaves no orphan behind — even one that died before this loop
    began.  SIGINT is ignored: a Ctrl-C at the daemon's terminal starts
    its drain, which lets the running job finish.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    return
                continue
            runner, job = conn.recv()
            try:
                reply = ("ok", runner(job))
            except Exception as exc:
                reply = ("error", _portable(exc))
            conn.send(reply)
        except (EOFError, OSError):
            return


def _send_job(conn: Connection, runner, job: SimJob) -> None:
    """Hand ``job`` to an idle warm worker.  A worker that died idle
    breaks the pipe; its EOF then reports the job as crashed."""
    try:
        conn.send((runner, job))
    except OSError:
        pass


def _receive(
    process, conn: Connection, job: SimJob, collect: bool
) -> Union[SimResult, JobFailure]:
    """Decode a warm worker's reply to ``job``.

    A result is returned.  The job's own exception is raised, or with
    ``collect`` returned as an ``"error"`` :class:`JobFailure`.  EOF
    means the worker died holding ``job``: it is reaped and the job
    becomes a ``"worker-crash"`` failure naming the exit code.
    """
    try:
        status, payload = conn.recv()
    except (EOFError, OSError):
        _stop_worker(process, conn, os.getpid())
        return JobFailure.crash(
            job, f"worker process died mid-job (exit code {process.exitcode})"
        )
    if status == "ok":
        return payload
    if not collect:
        raise payload
    return JobFailure.from_exception(job, payload)


def _stop_worker(process, conn: Connection, owner: int) -> None:
    """SIGKILL and reap a warm worker.  Only the process that forked it
    acts: later forks inherit this callback along with the executor.
    Idempotent."""
    if os.getpid() != owner:
        return
    process.kill()
    process.join(timeout=5.0)
    conn.close()


class Executor:
    """Runs batches of :class:`SimJob`\\ s with caching and parallelism.

    ``workers=1`` executes batches in-process (no fork, no pickling);
    ``workers>1`` fans a batch out over that many warm workers, forked
    for the batch and killed when it ends.  Either way, identical jobs
    within one batch are executed once, and an attached
    :class:`ResultCache` is consulted first and populated afterwards.

    ``stats`` counters: ``jobs``, ``cache_hits``, ``cache_misses``,
    ``cache_skipped`` (uncacheable side-effecting jobs), ``executed``,
    ``run_seconds`` (wall-clock of the execution phase), ``failures`` /
    ``worker_crashes`` / ``timeouts`` (jobs that produced a
    :class:`JobFailure` instead of a result), ``cache_store_errors``
    (results the cache could not store), and — for
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
        #: :meth:`run_job_guarded`'s warm worker: ``(process, pipe end)``
        self._worker = None
        #: kills the worker when the executor is closed or collected
        self._finalizer: Optional[weakref.finalize] = None

    def start_worker(self) -> None:
        """Fork :meth:`run_job_guarded`'s warm worker now unless a live
        one exists (otherwise the next guarded job forks it).  The
        service and the worker agent call this before they start any
        thread, so the long-lived worker cannot inherit a lock that a
        thread held at fork time."""
        if self._worker is not None and self._worker[0].is_alive():
            return
        self.close()
        self._worker = _new_worker()
        self._finalizer = weakref.finalize(
            self, _stop_worker, *self._worker, os.getpid()
        )

    def close(self) -> None:
        """Kill and reap the warm worker, if any.  Idempotent; a later
        guarded job forks a new one."""
        if self._finalizer is not None:
            self._finalizer()
        self._finalizer = None
        self._worker = None

    def run_job(self, job: SimJob) -> SimResult:
        return self.run_jobs([job])[0]

    def run_jobs(
        self, jobs: Sequence[SimJob], return_failures: bool = False
    ) -> List[Union[SimResult, JobFailure]]:
        """Execute a batch; results are returned in input order.

        With ``workers > 1`` and more than one job to execute, the batch
        fans out over ``min(workers, jobs)`` warm workers, one job in
        flight per worker.  A worker dying mid-job (OOM kill, segfault)
        does **not** lose the batch: exactly the job it held becomes a
        ``"worker-crash"`` :class:`JobFailure`, a replacement is forked
        while work remains, and every other job still completes (and is
        cached).  The workers are killed when the batch returns or
        raises, Ctrl-C included.  With ``return_failures=False`` (the
        default) such failures — and only such failures — are then
        raised as one :class:`BatchFailure`; a job's ordinary exception
        propagates unchanged.  With ``return_failures=True`` both
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
            hit = self._probe(self.cache, job)
            if hit is not None:
                results[index] = hit
                continue
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
            # pending lists each pending job's digest in pending_jobs' order
            for job, result, indexes in zip(
                pending_jobs, executed, pending.values()
            ):
                self._settle(self.cache, job, result)
                for index in indexes:
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

        The job executes on this executor's warm worker, a process
        forked once (by :meth:`start_worker` or the first guarded job)
        that runs one job at a time, so a crash is unambiguously
        attributable (a ``"worker-crash"`` :class:`JobFailure`) and
        ``timeout`` (wall-clock seconds) is enforceable: an overdue
        worker is killed, not just abandoned (``"timeout"``).  The next
        job forks a replacement for a killed or dead worker; Ctrl-C kills
        the worker and propagates.  The result cache is consulted and
        populated exactly as in :meth:`run_jobs`, and a store failing
        with ``OSError`` (disk full) is counted as ``cache_store_errors``
        there too.  This is the hook :mod:`repro.serve` dispatches
        through — one call per queue slot, each slot owning its own
        :class:`Executor` so counters need no locks.

        ``cache`` overrides the executor's own cache for this one call —
        anything with ``ResultCache``'s ``load``/``store`` shape works
        (``None`` disables caching for the call).  Cluster worker agents
        pass a lease-scoped :class:`~repro.serve.cluster.shard.TieredCache`
        here so a single executor can serve leases whose cache topology
        depends on the frontend that granted them.  Its ``store`` only
        holds the result: the agent writes it to its local tier after
        reporting, and counts a failed write as ``cache_store_errors``.
        """
        if cache is Executor._CACHE_DEFAULT:
            cache = self.cache
        self.stats.add("jobs")
        hit = self._probe(cache, job)
        if hit is not None:
            return hit

        runner = execute_job_checked if self.check else execute_job
        start = time.perf_counter()
        try:
            result = self._run_on_worker(runner, job, timeout)
        finally:
            self.stats.add("run_seconds", time.perf_counter() - start)
        self.stats.add("executed")
        self._settle(cache, job, result)
        return result

    def _probe(self, cache, job: SimJob) -> Optional[SimResult]:
        """``job``'s cached result, or ``None``; counts the lookup."""
        if cache is None:
            return None
        if self.check or not job.cacheable:
            # Side-effecting jobs (event tracing) must run for real: a
            # cached result cannot rewrite the trace.  Checked jobs
            # likewise: the invariant checker only sees events from an
            # actual execution.
            self.stats.add("cache_skipped")
            return None
        hit = cache.load(job)
        self.stats.add("cache_hits" if hit is not None else "cache_misses")
        return hit

    def _settle(
        self, cache, job: SimJob, result: Union[SimResult, JobFailure]
    ) -> None:
        """Count an executed job's outcome and store a cacheable result.
        A store failing with ``OSError`` (disk full) costs the entry,
        not the result."""
        if isinstance(result, JobFailure):
            self.stats.add("failures")
            if result.kind == "worker-crash":
                self.stats.add("worker_crashes")
            elif result.kind == "timeout":
                self.stats.add("timeouts")
        elif cache is not None and job.cacheable and not self.check:
            try:
                cache.store(job, result)
            except OSError:
                self.stats.add("cache_store_errors")

    def _run_on_worker(
        self, runner, job: SimJob, timeout: Optional[float]
    ) -> Union[SimResult, JobFailure]:
        self.start_worker()
        process, conn = self._worker
        try:
            _send_job(conn, runner, job)
            if not conn.poll(timeout):
                self.close()
                return JobFailure.timeout(job, timeout or 0.0)
            outcome = _receive(process, conn, job, collect=True)
        except BaseException:
            # KeyboardInterrupt/SystemExit: leave no orphaned worker or
            # half-written cache entry behind (stores are atomic, and
            # nothing reaches the cache from here).
            self.close()
            raise
        if conn.closed:  # the worker died holding the job
            self.close()
        return outcome

    def _execute(
        self, jobs: List[SimJob], collect: bool = False
    ) -> List[Union[SimResult, JobFailure]]:
        runner = execute_job_checked if self.check else execute_job
        if self.workers > 1 and len(jobs) > 1:
            return self._fan_out(runner, jobs, collect)
        results: List[Union[SimResult, JobFailure]] = []
        for job in jobs:
            try:
                results.append(runner(job))
            except Exception as exc:
                if not collect:
                    raise
                results.append(JobFailure.from_exception(job, exc))
        return results

    def _fan_out(
        self, runner, jobs: List[SimJob], collect: bool
    ) -> List[Union[SimResult, JobFailure]]:
        """Run ``jobs`` on up to ``self.workers`` warm workers, each
        holding one job at a time; results come back in input order."""
        results: List[Optional[Union[SimResult, JobFailure]]] = [None] * len(jobs)
        todo = list(range(len(jobs)))[::-1]  # popped from the end
        forked = []
        # pipe end of each worker holding a job -> (process, job index)
        held: Dict[Connection, Tuple[object, int]] = {}

        def hand_out(process, conn: Connection) -> None:
            index = todo.pop()
            held[conn] = (process, index)
            _send_job(conn, runner, jobs[index])

        try:
            while todo or held:
                while todo and len(held) < self.workers:
                    forked.append(_new_worker())
                    hand_out(*forked[-1])
                for conn in wait(list(held)):
                    process, index = held.pop(conn)
                    results[index] = _receive(process, conn, jobs[index], collect)
                    if todo and not conn.closed:  # closed: it died
                        hand_out(process, conn)
        finally:
            for process, conn in forked:
                _stop_worker(process, conn, os.getpid())
        return results  # type: ignore[return-value]
