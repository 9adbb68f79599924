"""Executor robustness: crash isolation, timeouts, interruption hygiene.

These tests drive the failure machinery the ``repro.serve`` supervisor
builds on: a worker process dying mid-job must cost exactly that job
(typed :class:`JobFailure`), never the batch; overdue guarded jobs must
have their workers *killed*, not abandoned; and interrupting a batch
must leave no orphaned worker processes and no half-written cache
entries.  Batches fan out over warm workers forked for the batch;
guarded jobs run job after job on one warm worker per executor, whose
lifetime is bounded by the executor's (``close``, garbage collection)
and by its parent's (a SIGKILLed owner leaves no orphan).
"""

import gc
import multiprocessing
import multiprocessing.util
import os
import signal
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

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
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


class FullDisk(ResultCache):
    """A result cache whose every write fails as on a full disk."""

    def put(self, digest, result):
        raise OSError(28, "No space left on device")


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ordinary_exception_still_raises_by_default(
        self, fault_dir, workers
    ):
        with pytest.raises(RuntimeError, match="deterministic workload bug"):
            Executor(workers=workers).run_jobs(
                [fault_job("raise_always"), ok_job(seed=52)]
            )


@needs_fork
class TestFanOut:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_error_keeps_every_result(self, tmp_path, workers):
        jobs = [ok_job(seed=seed) for seed in (111, 112, 113)]
        executor = Executor(workers=workers, cache=FullDisk(tmp_path))
        results = executor.run_jobs(jobs)
        assert [result.to_dict() for result in results] == [
            execute_job(job).to_dict() for job in jobs
        ]
        assert executor.stats.get("cache_store_errors") == 3

    def test_two_crashes_cost_exactly_their_two_jobs(self, fault_dir):
        jobs = [
            ok_job(seed=121),
            fault_job("crash_always", seed=4),
            ok_job(seed=122),
            fault_job("crash_always", seed=5),
            ok_job(seed=123),
        ]
        executor = Executor(workers=2)
        results = executor.run_jobs(jobs, return_failures=True)
        for index in (1, 3):
            assert isinstance(results[index], JobFailure)
            assert results[index].kind == "worker-crash"
            assert "exit code -9" in results[index].message
        for index in (0, 2, 4):
            assert results[index].to_dict() == execute_job(jobs[index]).to_dict()
        assert executor.stats.get("worker_crashes") == 2

    @pytest.mark.parametrize(
        "workload, message",
        [
            ("raise_unpicklable", "LocalError: not importable"),
            ("raise_unloadable", "TwoArgError: config: bad"),
            ("raise_garbled", "CountedError: 2 problem(s): late, lost"),
        ],
    )
    def test_exception_that_cannot_cross_the_pipe_arrives_as_runtime_error(
        self, fault_dir, workload, message
    ):
        with pytest.raises(RuntimeError) as excinfo:
            Executor(workers=2).run_jobs([fault_job(workload), ok_job(seed=131)])
        assert type(excinfo.value) is RuntimeError
        assert str(excinfo.value) == message
        executor = Executor(workers=1)
        outcome = executor.run_job_guarded(fault_job(workload))
        assert isinstance(outcome, JobFailure) and outcome.kind == "error"
        assert outcome.message == f"RuntimeError: {message}"
        executor.close()


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
        """KeyboardInterrupt mid-batch: the batch's workers die with us
        and the cache directory holds no half-written entries."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path)
        executor = Executor(workers=2, cache=cache)
        jobs = [fault_job("sleep_forever", seed=s) for s in (71, 72)]

        import signal

        # A real SIGINT (what Ctrl-C sends): _thread.interrupt_main only
        # sets the pending flag, which never wakes a blocking wait on
        # the workers' pipes.
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
        assert not multiprocessing.active_children(), "orphaned batch workers"

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


def worker_of(executor: Executor):
    """The executor's warm worker process (``None`` before the first)."""
    return executor._worker[0] if executor._worker is not None else None


def pid_alive(pid: int) -> bool:
    """False once ``pid`` has exited, zombie or reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _own_a_warm_worker(conn, worker_starts_late: bool = False) -> None:
    """Helper process body: fork a warm worker, then a bystander that
    inherits this process's end of the worker's pipe — so the worker
    sees no EOF when this process dies — report both pids, and idle.
    ``worker_starts_late`` holds the worker in its bootstrap for 1 s,
    so this process dies before the worker's loop begins."""
    executor = Executor(workers=1)
    if worker_starts_late:
        multiprocessing.util.register_after_fork(
            executor, lambda _: time.sleep(1.0)
        )
    executor.start_worker()
    bystander = os.fork()
    if bystander == 0:
        time.sleep(600)
        os._exit(0)
    conn.send((worker_of(executor).pid, bystander))
    time.sleep(600)


@needs_fork
class TestWarmWorker:
    def test_job_after_job_in_one_process_matches_in_process_runs(self):
        a = ok_job(seed=101)
        b = SimJob.build(
            "em3d",
            prefetcher="bingo",
            system=small_system(num_cores=4),
            instructions_per_core=1500,
            warmup_instructions=0,
            seed=102,
            scale=0.02,
        )
        executor = Executor(workers=1)
        pids = []
        for job in (a, b, a):
            result = executor.run_job_guarded(job)
            assert not isinstance(result, JobFailure), result
            assert result.to_dict() == execute_job(job).to_dict()
            pids.append(worker_of(executor).pid)
        assert len(set(pids)) == 1, "each job should reuse the warm worker"
        assert pids[0] != os.getpid()
        assert executor.stats.get("executed") == 3
        executor.close()

    def test_error_keeps_the_worker(self, fault_dir):
        executor = Executor(workers=1)
        executor.start_worker()
        before = worker_of(executor)
        outcome = executor.run_job_guarded(fault_job("raise_always"))
        assert isinstance(outcome, JobFailure) and outcome.kind == "error"
        assert outcome.message == "RuntimeError: deterministic workload bug"
        assert worker_of(executor) is before and before.is_alive()
        executor.close()

    def test_crash_names_the_exit_code_and_next_job_gets_a_new_worker(
        self, fault_dir
    ):
        executor = Executor(workers=1)
        executor.start_worker()
        crashed = worker_of(executor)
        outcome = executor.run_job_guarded(fault_job("crash_always"))
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "worker-crash"
        assert "exit code -9" in outcome.message
        assert not crashed.is_alive()
        assert worker_of(executor) is None
        again = executor.run_job_guarded(ok_job(seed=103))
        assert not isinstance(again, JobFailure)
        assert worker_of(executor).pid != crashed.pid
        executor.close()

    def test_timeout_replaces_the_worker(self, fault_dir):
        executor = Executor(workers=1)
        executor.start_worker()
        killed = worker_of(executor)
        outcome = executor.run_job_guarded(
            fault_job("sleep_forever"), timeout=0.3
        )
        assert isinstance(outcome, JobFailure) and outcome.kind == "timeout"
        assert not killed.is_alive()
        again = executor.run_job_guarded(ok_job(seed=104))
        assert not isinstance(again, JobFailure)
        executor.close()

    def test_worker_dead_while_idle_is_replaced_before_the_job(self):
        executor = Executor(workers=1)
        executor.start_worker()
        idle = worker_of(executor)
        os.kill(idle.pid, signal.SIGKILL)
        idle.join(5.0)
        outcome = executor.run_job_guarded(ok_job(seed=105))
        assert not isinstance(outcome, JobFailure), outcome
        assert executor.stats.get("worker_crashes") == 0
        executor.close()

    def test_worker_ignores_sigint(self):
        # Ctrl-C reaches the daemon's whole process group; the daemon
        # drains, and the worker must live to finish its job
        executor = Executor(workers=1)
        assert not isinstance(executor.run_job_guarded(ok_job(seed=107)),
                              JobFailure)
        worker = worker_of(executor)
        os.kill(worker.pid, signal.SIGINT)
        outcome = executor.run_job_guarded(ok_job(seed=108))
        assert not isinstance(outcome, JobFailure), outcome
        assert worker_of(executor) is worker and worker.is_alive()
        executor.close()

    def test_interrupt_kills_the_worker_and_propagates(self, fault_dir):
        executor = Executor(workers=1)
        executor.start_worker()
        worker = worker_of(executor)
        # a real SIGINT (what Ctrl-C sends), to this process only
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                executor.run_job_guarded(fault_job("sleep_forever"))
        finally:
            timer.cancel()
        assert not worker.is_alive()
        assert worker_of(executor) is None

    def test_close_is_idempotent_and_reaps(self):
        executor = Executor(workers=1)
        executor.start_worker()
        worker = worker_of(executor)
        executor.close()
        executor.close()
        assert not worker.is_alive()
        assert worker.exitcode is not None
        assert worker not in multiprocessing.active_children()

    def test_collected_executor_leaves_no_worker(self):
        # the second worker, forked later, holds a copy of the first
        # one's pipe end: no EOF reaches the first, only the finalizer
        first, second = Executor(workers=1), Executor(workers=1)
        first.start_worker()
        second.start_worker()
        worker = worker_of(first)
        del first
        gc.collect()
        assert not worker.is_alive()
        second.close()

    def test_store_error_still_returns_the_result(self, tmp_path):
        job = ok_job(seed=106)
        executor = Executor(workers=1, cache=FullDisk(tmp_path))
        result = executor.run_job_guarded(job)
        assert not isinstance(result, JobFailure), result
        assert result.to_dict() == execute_job(job).to_dict()
        assert executor.stats.get("cache_store_errors") == 1
        executor.close()


def _kill_owner_and_await_its_worker(worker_starts_late: bool) -> None:
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    owner = context.Process(
        target=_own_a_warm_worker, args=(child_end, worker_starts_late)
    )
    owner.start()
    child_end.close()
    orphans = []
    try:
        assert parent_end.poll(30.0), "owner never reported its worker"
        orphans = list(parent_end.recv())
        worker_pid, bystander = orphans
        assert pid_alive(worker_pid)
        # no join here: the orphans hold the owner's sentinel pipe, so a
        # join would wait out its whole timeout
        owner.kill()
        deadline = time.monotonic() + 5.0
        while pid_alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not pid_alive(worker_pid), "the orphaned worker outlived 5 s"
        assert pid_alive(bystander), "EOF, not the lost parent, ended it"
    finally:
        parent_end.close()
        owner.kill()
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        owner.join(10.0)


@needs_fork
@needs_proc
def test_worker_exits_when_its_owner_is_sigkilled():
    _kill_owner_and_await_its_worker(worker_starts_late=False)


@needs_fork
@needs_proc
def test_worker_exits_when_its_owner_dies_before_its_loop_starts():
    _kill_owner_and_await_its_worker(worker_starts_late=True)


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
