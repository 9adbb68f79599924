"""Executor robustness: crash isolation, timeouts, interruption hygiene.

These tests drive the failure machinery the ``repro.serve`` supervisor
builds on: a worker process dying mid-job must cost exactly that job
(typed :class:`JobFailure`), never the batch; overdue guarded jobs must
have their workers *killed*, not abandoned; and interrupting a batch
must leave no orphaned pool processes and no half-written cache
entries.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.common.config import small_system
from repro.sim.executor import (
    BatchFailure,
    Executor,
    JobFailure,
    ResultCache,
    SimJob,
    execute_job,
)


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
        return True
    except ValueError:  # pragma: no cover - platform dependent
        return False


needs_fork = pytest.mark.skipif(
    not _has_fork(),
    reason="fault workloads are registered in-process; workers must fork",
)


def fault_job(workload: str, seed: int = 3, **overrides) -> SimJob:
    spec = dict(
        system=small_system(num_cores=1),
        instructions_per_core=400,
        warmup_instructions=0,
        seed=seed,
        scale=1.0,
        compile=False,
    )
    spec.update(overrides)
    return SimJob.build(workload, prefetcher="none", **spec)


def ok_job(seed: int = 3, **overrides) -> SimJob:
    spec = dict(
        system=small_system(num_cores=4),
        instructions_per_core=1500,
        warmup_instructions=0,
        seed=seed,
        scale=0.02,
        compile=False,
    )
    spec.update(overrides)
    return SimJob.build("streaming", prefetcher="none", **spec)


class TestJobFailure:
    def test_kinds_and_retryability(self):
        job = ok_job()
        crash = JobFailure.crash(job, "boom")
        timeout = JobFailure.timeout(job, 1.5)
        error = JobFailure.from_exception(job, ValueError("nope"))
        assert crash.retryable and timeout.retryable
        assert not error.retryable
        assert error.kind == "error" and "ValueError" in error.message
        assert crash.digest == job.digest()

    def test_round_trips_to_dict(self):
        failure = JobFailure.crash(ok_job(), "killed")
        data = failure.to_dict()
        assert data["kind"] == "worker-crash"
        assert JobFailure(**data) == failure


@needs_fork
class TestCrashIsolation:
    def test_worker_crash_loses_only_that_job(self, fault_dir):
        jobs = [
            ok_job(seed=11),
            fault_job("crash_always"),
            ok_job(seed=12),
        ]
        executor = Executor(workers=2)
        results = executor.run_jobs(jobs, return_failures=True)
        assert isinstance(results[0].demand_accesses, int)
        assert isinstance(results[1], JobFailure)
        assert results[1].kind == "worker-crash"
        assert isinstance(results[2].demand_accesses, int)
        assert executor.stats.get("worker_crashes") == 1
        assert executor.stats.get("failures") == 1

    def test_survivors_match_unbroken_run(self, fault_dir):
        survivor = ok_job(seed=21)
        broken = Executor(workers=2).run_jobs(
            [survivor, fault_job("crash_always")], return_failures=True
        )
        assert broken[0].to_dict() == execute_job(survivor).to_dict()

    def test_default_mode_raises_typed_batch_failure(self, fault_dir):
        executor = Executor(workers=2)
        with pytest.raises(BatchFailure) as excinfo:
            executor.run_jobs([ok_job(seed=31), fault_job("crash_always")])
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0].kind == "worker-crash"
        assert "crash_always" in str(excinfo.value)

    def test_survivors_are_cached_despite_crash(self, fault_dir, tmp_path):
        cache = ResultCache(tmp_path)
        survivor = ok_job(seed=41)
        with pytest.raises(BatchFailure):
            Executor(workers=2, cache=cache).run_jobs(
                [survivor, fault_job("crash_always")]
            )
        assert cache.load(survivor) is not None

    def test_ordinary_exception_becomes_error_failure(self, fault_dir):
        results = Executor(workers=2).run_jobs(
            [fault_job("raise_always"), ok_job(seed=51)],
            return_failures=True,
        )
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "error"
        assert "deterministic workload bug" in results[0].message
        assert not isinstance(results[1], JobFailure)

    def test_ordinary_exception_still_raises_by_default(self, fault_dir):
        with pytest.raises(RuntimeError, match="deterministic workload bug"):
            Executor(workers=1).run_jobs([fault_job("raise_always")])


@needs_fork
class TestGuardedRun:
    def test_success_path_uses_and_fills_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ok_job(seed=61)
        first = Executor(workers=1, cache=cache)
        result = first.run_job_guarded(job)
        assert not isinstance(result, JobFailure)
        assert first.stats.get("cache_misses") == 1
        second = Executor(workers=1, cache=cache)
        again = second.run_job_guarded(job)
        assert second.stats.get("cache_hits") == 1
        assert again.to_dict() == result.to_dict()

    def test_timeout_kills_the_worker(self, fault_dir):
        executor = Executor(workers=1)
        start = time.monotonic()
        outcome = executor.run_job_guarded(
            fault_job("sleep_forever"), timeout=0.5
        )
        elapsed = time.monotonic() - start
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "timeout"
        assert elapsed < 30, "worker was not killed, run_job_guarded waited"
        assert executor.stats.get("timeouts") == 1
        # the killed worker must not linger
        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_crash_is_reported_not_raised(self, fault_dir):
        outcome = Executor(workers=1).run_job_guarded(
            fault_job("crash_always")
        )
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "worker-crash"

    def test_crash_once_succeeds_on_second_attempt(self, fault_dir):
        executor = Executor(workers=1)
        job = fault_job("crash_once")
        first = executor.run_job_guarded(job)
        assert isinstance(first, JobFailure) and first.kind == "worker-crash"
        second = executor.run_job_guarded(job)
        assert not isinstance(second, JobFailure)
        assert second.demand_accesses > 0


@needs_fork
class TestInterruption:
    def test_interrupt_leaves_no_orphans_or_torn_cache(
        self, fault_dir, tmp_path, monkeypatch
    ):
        """KeyboardInterrupt mid-batch: pool processes die with us and
        the cache directory holds no half-written entries."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path)
        executor = Executor(workers=2, cache=cache)
        jobs = [fault_job("sleep_forever", seed=s) for s in (71, 72)]

        import signal

        # A real SIGINT (what Ctrl-C sends): _thread.interrupt_main only
        # sets the pending flag, which never wakes a blocking
        # future.result() wait.
        timer = threading.Timer(
            0.8, os.kill, (os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                executor.run_jobs(jobs)
        finally:
            timer.cancel()

        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children(), "orphaned pool workers"

        leftovers = [
            path
            for path in tmp_path.rglob("*")
            if path.is_file()
        ]
        torn = [p for p in leftovers if p.name.startswith(".tmp-")]
        assert not torn, f"half-written cache entries: {torn}"
        # the interrupted jobs never completed, so nothing was stored
        for job in jobs:
            assert cache.load(job) is None


class TestCorruptCacheEviction:
    def test_truncated_entry_is_deleted_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ok_job(seed=81)
        cache.store(job, execute_job(job))
        path = cache.path_for(job.digest())
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")  # torn write
        assert cache.load(job) is None
        assert not path.exists(), "corrupt entry should be evicted"
        # and the next store/load cycle heals it
        cache.store(job, execute_job(job))
        assert cache.load(job) is not None

    def test_garbage_entry_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ok_job(seed=82)
        path = cache.path_for(job.digest())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\x00\x01 not json", encoding="utf-8")
        assert cache.load(job) is None
        assert not path.exists()

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(ok_job(seed=83)) is None
