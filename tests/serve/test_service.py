"""End-to-end service behaviour: the acceptance tests of ``repro.serve``.

Covers the ISSUE's acceptance criteria in-process:

* the same job submitted twice concurrently over HTTP runs exactly one
  simulation, both submissions resolve to the same record, and
  ``/metrics`` exposes the dedup + cache counters;
* a job whose worker is SIGKILLed retries with backoff and eventually
  succeeds (``crash_once``);
* a deterministic failure quarantines its spec after the breaker
  threshold;
* draining a part-way-through queue finishes the running job, persists
  the rest, and a restarted service restores them as pending.
"""

import dataclasses
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.config import small_system
from repro.serve import (
    QuarantinedError,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    make_server,
)
from repro.sim.executor import SimJob


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


def real_job(seed: int = 7) -> SimJob:
    return SimJob.build(
        "streaming",
        prefetcher="none",
        system=small_system(num_cores=4),
        instructions_per_core=1500,
        warmup_instructions=0,
        seed=seed,
        scale=0.02,
        compile=False,
    )


def fault_job(workload: str, seed: int = 3) -> SimJob:
    return SimJob.build(
        workload,
        prefetcher="none",
        system=small_system(num_cores=1),
        instructions_per_core=400,
        warmup_instructions=0,
        seed=seed,
        scale=1.0,
        compile=False,
    )


def wait_terminal(service, record, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if record.state.terminal:
            return record
        time.sleep(0.05)
    raise AssertionError(
        f"job {record.id} still {record.state.value} after {timeout:g}s"
    )


def drain_quietly(service):
    if not service._drained.is_set():
        service.drain(timeout=10.0)


class TestCompletion:
    def test_submitted_job_completes(self, tmp_path):
        service = SimulationService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path))
        ).start()
        try:
            record, deduped = service.submit(real_job())
            assert not deduped
            wait_terminal(service, record)
            assert record.state.value == "done"
            assert record.result.demand_accesses > 0
            assert record.error is None
            snapshot = service.stats.snapshot()
            assert snapshot["serve.completed"] == 1
            assert snapshot["serve.run.count"] == 1
            assert snapshot["serve.queue_wait.count"] == 1
        finally:
            drain_quietly(service)

    def test_priorities_order_execution(self, tmp_path):
        """With no free slot, the high-priority job runs before the
        earlier-submitted low-priority one."""
        service = SimulationService(
            ServiceConfig(workers=1, cache_dir=None)
        )
        low, _ = service.submit(real_job(seed=1), priority=0)
        high, _ = service.submit(real_job(seed=2), priority=10)
        service.start()
        try:
            wait_terminal(service, low)
            wait_terminal(service, high)
            assert high.started_at <= low.started_at
        finally:
            drain_quietly(service)


class TestHttpDedupAcceptance:
    def test_concurrent_identical_submissions_run_once(self, tmp_path):
        """The ISSUE's e2e criterion, over real HTTP."""
        service = SimulationService(
            ServiceConfig(workers=2, cache_dir=str(tmp_path))
        )
        server = make_server(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        http_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        http_thread.start()
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
        spec = {
            "workload": "streaming",
            "prefetcher": "none",
            "instructions": 1500,
            "warmup": 0,
            "seed": 77,
            "scale": 0.02,
            "compile": False,
            "system": dataclasses.asdict(small_system(num_cores=4)),
        }
        try:
            # Submit twice concurrently *before* the worker slots start,
            # so both submissions race only each other.
            with ThreadPoolExecutor(max_workers=2) as posts:
                futures = [posts.submit(client.submit, spec) for _ in range(2)]
                first, second = [f.result() for f in futures]

            assert first["id"] == second["id"], "both clients poll one record"
            assert {first["deduped"], second["deduped"]} == {False, True}

            service.start()
            final = client.wait(first["id"], timeout=60.0)
            assert final["state"] == "done"
            assert final["result"]["demand_accesses"] > 0

            metrics = client.metrics()
            assert metrics["counters"]["dedup_hits"] == 1
            assert metrics["counters"]["submitted"] == 2
            totals = metrics["executor_totals"]
            assert totals["executed"] == 1, "exactly one simulation ran"
            assert totals["cache_misses"] == 1

            # A later identical submission is a fresh record answered by
            # the shared result cache, not a re-run.
            third = client.submit(spec)
            assert third["deduped"] is False
            assert third["id"] != first["id"]
            rerun = client.wait(third["id"], timeout=30.0)
            assert rerun["state"] == "done"
            assert rerun["result"] == final["result"]
            totals = client.metrics()["executor_totals"]
            assert totals["cache_hits"] == 1
            assert totals["executed"] == 1, "cache answered the re-run"
        finally:
            drain_quietly(service)
            server.shutdown()
            server.server_close()
            http_thread.join(5.0)


@needs_fork
class TestFaultHandling:
    def test_worker_crash_retries_with_backoff_then_succeeds(
        self, fault_dir
    ):
        service = SimulationService(
            ServiceConfig(
                workers=1,
                job_timeout=60.0,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.05, max_delay=0.2, jitter=0.0
                ),
                cache_dir=None,
            )
        ).start()
        try:
            record, _ = service.submit(fault_job("crash_once"))
            wait_terminal(service, record)
            assert record.state.value == "done"
            assert record.attempts == 2, "one crash, one clean re-run"
            assert record.result.demand_accesses > 0
            snapshot = service.stats.snapshot()
            assert snapshot["serve.retries"] == 1
            assert snapshot["serve.failures_worker_crash"] == 1
            assert snapshot["serve.completed"] == 1
        finally:
            drain_quietly(service)

    def test_retry_budget_exhaustion_fails_terminally(self, fault_dir):
        service = SimulationService(
            ServiceConfig(
                workers=1,
                job_timeout=60.0,
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.05, max_delay=0.1, jitter=0.0
                ),
                cache_dir=None,
            )
        ).start()
        try:
            record, _ = service.submit(fault_job("crash_always"))
            wait_terminal(service, record, timeout=60.0)
            assert record.state.value == "failed"
            assert record.attempts == 2
            assert record.error["kind"] == "worker-crash"
            assert service.stats.get("retries") == 1
            assert service.stats.get("failed") == 1
        finally:
            drain_quietly(service)

    def test_timeout_is_enforced_and_typed(self, fault_dir):
        service = SimulationService(
            ServiceConfig(
                workers=1,
                job_timeout=0.75,
                retry=RetryPolicy(max_attempts=1),
                cache_dir=None,
            )
        ).start()
        try:
            record, _ = service.submit(fault_job("sleep_forever"))
            wait_terminal(service, record, timeout=30.0)
            assert record.state.value == "failed"
            assert record.error["kind"] == "timeout"
            assert service.stats.get("failures_timeout") == 1
        finally:
            drain_quietly(service)

    def test_repeated_failures_quarantine_the_spec(self, fault_dir):
        service = SimulationService(
            ServiceConfig(
                workers=1,
                job_timeout=60.0,
                retry=RetryPolicy(max_attempts=1),
                breaker_threshold=2,
                breaker_cooldown=300.0,
                cache_dir=None,
            )
        ).start()
        try:
            for _ in range(2):
                record, _ = service.submit(fault_job("raise_always"))
                wait_terminal(service, record, timeout=30.0)
                assert record.state.value == "failed"
                assert record.error["kind"] == "error"
            with pytest.raises(QuarantinedError) as excinfo:
                service.submit(fault_job("raise_always"))
            assert excinfo.value.retry_after > 0
            assert service.stats.get("rejected_quarantined") == 1
            assert service.metrics()["breaker_open_digests"] == 1
            # other specs are unaffected
            record, _ = service.submit(real_job(seed=91))
            wait_terminal(service, record)
            assert record.state.value == "done"
        finally:
            drain_quietly(service)


@needs_fork
class TestDrainAndRestore:
    def test_drain_finishes_running_persists_pending(
        self, fault_dir, tmp_path
    ):
        state_dir = tmp_path / "state"
        config = ServiceConfig(
            workers=1,
            job_timeout=60.0,
            state_dir=str(state_dir),
            cache_dir=None,
        )
        service = SimulationService(config)
        records = [
            service.submit(fault_job("slow_ok", seed=s))[0]
            for s in (1, 2, 3)
        ]
        service.start()
        deadline = time.monotonic() + 30.0
        while (
            service.queue.state_counts().get("running", 0) == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)

        persisted = service.drain(timeout=30.0)
        assert 1 <= persisted <= 2, "the running job must not persist"
        done = [r for r in records if r.state.value == "done"]
        pending = [r for r in records if r.state.value == "pending"]
        assert len(done) == 3 - persisted
        assert len(pending) == persisted
        for record in done:
            assert record.result is not None, "running work was finished"

        restarted = SimulationService(config)
        restored = restarted.restore()
        assert restored == persisted
        counts = restarted.queue.state_counts()
        assert counts.get("pending", 0) == persisted
        restored_ids = {r.id for r in restarted.queue.records()}
        assert restored_ids == {r.id for r in pending}

    def test_drain_with_empty_queue_persists_nothing(self, tmp_path):
        config = ServiceConfig(
            workers=1, state_dir=str(tmp_path), cache_dir=None
        )
        service = SimulationService(config).start()
        assert service.drain(timeout=5.0) == 0
        assert SimulationService(config).restore() == 0
