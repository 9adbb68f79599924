"""Cluster end-to-end, in one process: frontend-only service behind the
real HTTP server, real :class:`WorkerAgent` instances leasing over the
wire, real clocks.

The invariant under test is the tentpole's: a job executed by a remote
worker produces **byte-identical** results to the same job executed
in-process — the cluster only changes *where* ``execute_job`` runs.
Subprocess-level behaviour (SIGKILL, env isolation) lives in
``tools/serve_smoke.py cluster``.
"""

import contextlib
import threading
import time

import pytest

from repro.common.config import small_system
from repro.serve import (
    ServiceClient,
    ServiceConfig,
    SimulationService,
    WorkerAgent,
    make_server,
)
from repro.serve.jobs import JobState
from repro.sim.executor import SimJob, execute_job


def make_job(seed: int = 1) -> SimJob:
    return SimJob.build(
        "streaming",
        prefetcher="none",
        system=small_system(num_cores=4),
        instructions_per_core=1000,
        warmup_instructions=0,
        seed=seed,
    )


@contextlib.contextmanager
def serving(cache_dir, workers: int = 0):
    """(service, url): a started service with ``workers`` local slots
    (0 = frontend-only) behind the HTTP server on an ephemeral port."""
    service = SimulationService(
        ServiceConfig(
            workers=workers,
            cache_dir=str(cache_dir),
            job_timeout=60.0,
            lease_ttl=30.0,
        )
    ).start()
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        service.drain(timeout=10.0)


@pytest.fixture
def frontend(tmp_path):
    """(service, url): a started frontend-only node on an ephemeral port."""
    with serving(tmp_path / "frontend") as running:
        yield running


def make_agent(url, tmp_path, name, **kwargs) -> WorkerAgent:
    """An agent not yet started, so a test can patch it before it leases."""
    kwargs.setdefault("cache_dir", str(tmp_path / name))
    kwargs.setdefault("lease_wait", 0.5)
    kwargs.setdefault("job_timeout", 60.0)
    return WorkerAgent(url, node_id=name, **kwargs)


def start_agent(url, tmp_path, name, **kwargs) -> WorkerAgent:
    return make_agent(url, tmp_path, name, **kwargs).start()


def disk_full(digest, result):
    raise OSError(28, "No space left on device")


def slot_counters(agent) -> dict:
    return agent.snapshot()["counters"].get("executor", {}).get("slot0", {})


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestRemoteExecution:
    def test_remote_results_identical_to_local(self, frontend, tmp_path):
        service, url = frontend
        agent = start_agent(url, tmp_path, "agent-1", capacity=2)
        try:
            jobs = [make_job(seed=s) for s in (1, 2, 3)]
            records = [service.submit(job)[0] for job in jobs]
            client = ServiceClient(url, timeout=10.0)
            finals = [client.wait(r.id, timeout=60.0) for r in records]
        finally:
            agent.stop(timeout=10.0)

        for job, final in zip(jobs, finals):
            assert final["state"] == "done", final.get("error")
            local = execute_job(job)
            # the whole wire dict, not a summary: byte-identical results
            assert final["result"] == local.to_dict()
            assert final["digest"] == job.digest()

        # the work really happened on the agent, not a local slot
        counters = agent.snapshot()["counters"]
        assert counters.get("leases", 0) == 3
        assert counters.get("reports", 0) == 3
        snap = service.cluster.snapshot()
        assert snap["workers"]["agent-1"]["leases"] == 3
        assert snap["leases_inflight"] == 0

    def test_failed_job_reports_node(self, frontend, tmp_path):
        service, url = frontend
        # an unknown workload fails deterministically inside the worker
        job = make_job(seed=4)
        object.__setattr__(job, "workload", "no-such-workload")
        agent = start_agent(url, tmp_path, "agent-err")
        try:
            record, _ = service.submit(job)
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=60.0
            )
        finally:
            agent.stop(timeout=10.0)
        assert final["state"] == "failed"
        assert final["error"]["node"] == "agent-err"


    def test_local_store_error_neither_loses_the_result_nor_the_slot(
        self, frontend, tmp_path
    ):
        service, url = frontend
        agent = start_agent(url, tmp_path, "agent-full")

        def disk_full(digest, result):
            raise OSError(28, "No space left on device")

        agent._local_cache.put = disk_full
        try:
            job = make_job(seed=5)
            record, _ = service.submit(job)
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=30.0
            )
            slots = [t for t in agent._threads if t.name == "worker-slot-0"]
            slot_alive = slots[0].is_alive()
        finally:
            agent.stop(timeout=10.0)
        assert final["state"] == "done", final.get("error")
        assert final["result"] == execute_job(job).to_dict()
        assert slot_alive, "the store error ended the slot thread"
        slot = agent.snapshot()["counters"]["executor"]["slot0"]
        assert slot["cache_store_errors"] == 1

    def test_local_backfill_error_neither_loses_the_result_nor_the_slot(
        self, frontend, tmp_path
    ):
        """A remote hit whose local backfill fails still reports the
        frontend's result, and the slot lives on to lease again."""
        service, url = frontend
        job = make_job(seed=6)
        expected = execute_job(job).to_dict()
        service.cluster.cache_put(job.digest(), expected)
        agent = make_agent(url, tmp_path, "agent-backfill")
        agent._local_cache.put = disk_full
        agent.start()
        try:
            record, _ = service.submit(job)
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=20.0
            )
            counted = wait_until(
                lambda: slot_counters(agent).get("cache_store_errors", 0) >= 1
            )
            slots = [t for t in agent._threads if t.name == "worker-slot-0"]
            slot_alive = slots[0].is_alive()
        finally:
            agent.stop(timeout=10.0)
        assert final["state"] == "done", final.get("error")
        assert final["result"] == expected
        assert counted, "the failed backfill was not counted"
        assert slot_alive, "the backfill error ended the slot thread"
        slot = slot_counters(agent)
        assert slot["cache_hits"] == 1
        assert slot.get("executed", 0) == 0
        assert slot["cache_store_errors"] == 1


class TestOneFrontendWrite:
    """A cold job's report is its one write to the frontend's store, and
    the agent writes its own cache only after the report."""

    def test_cold_job_stores_once_and_the_agent_never_puts(
        self, frontend, tmp_path
    ):
        service, url = frontend
        agent = make_agent(url, tmp_path, "agent-once")
        puts = []
        forward = agent.client.cache_put

        def cache_put(digest, result):
            puts.append(digest)
            return forward(digest, result)

        agent.client.cache_put = cache_put
        before = service.metrics()["counters"].get("cluster", {})
        agent.start()
        try:
            record, _ = service.submit(make_job(seed=7))
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=60.0
            )
        finally:
            agent.stop(timeout=10.0)
        assert final["state"] == "done", final.get("error")
        after = service.metrics()["counters"]["cluster"]
        assert after["cache_puts"] - before.get("cache_puts", 0) == 1
        assert puts == []
        assert slot_counters(agent)["executed"] == 1

    def test_the_local_write_finds_the_job_done(self, frontend, tmp_path):
        service, url = frontend
        record, _ = service.submit(make_job(seed=8))
        agent = make_agent(url, tmp_path, "agent-after")
        states = []
        store = agent._local_cache.put

        def put(digest, result):
            states.append(service.get(record.id).state)
            return store(digest, result)

        agent._local_cache.put = put
        agent.start()
        try:
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=60.0
            )
        finally:
            agent.stop(timeout=10.0)  # joins the slot after its write
        assert final["state"] == "done", final.get("error")
        assert states == [JobState.DONE]
        assert agent._local_cache.get(final["digest"]) == final["result"]


class TestSharedResultCache:
    def test_second_node_dedupes_via_frontend_cache(self, frontend, tmp_path):
        service, url = frontend
        job = make_job(seed=9)

        agent1 = start_agent(url, tmp_path, "agent-a")
        try:
            record, _ = service.submit(job)
            client = ServiceClient(url, timeout=10.0)
            first = client.wait(record.id, timeout=60.0)
        finally:
            agent1.stop(timeout=10.0)
        assert first["state"] == "done"
        # the coordinator stored the reported result
        assert service.cluster.cache_get(job.digest()) is not None

        # a *fresh* node with an empty local cache re-runs the same spec:
        # its executor must hit the frontend's cache, not re-simulate
        agent2 = start_agent(url, tmp_path, "agent-b")
        try:
            record2, deduped = service.submit(make_job(seed=9))
            assert not deduped  # first record is terminal; this is new work
            second = client.wait(record2.id, timeout=60.0)
        finally:
            agent2.stop(timeout=10.0)

        assert second["state"] == "done"
        assert second["result"] == first["result"]
        counters = agent2.snapshot()["counters"]
        executor = counters.get("executor", {})
        slot = executor.get("slot0", {})
        assert slot.get("cache_hits", 0) == 1
        assert slot.get("executed", 0) == 0

    @staticmethod
    def _run_local(cache_dir, job):
        """Run ``job`` on a service with one local slot; returns the
        final record and the slot's executor counters."""
        with serving(cache_dir, workers=1) as (service, url):
            record, _ = service.submit(job)
            final = ServiceClient(url, timeout=10.0).wait(
                record.id, timeout=60.0
            )
            totals = service.metrics()["executor_totals"]
        assert final["state"] == "done", final.get("error")
        return final, totals

    @staticmethod
    def _run_on_agent(cache_dir, tmp_path, name, job):
        """Run ``job`` on a fresh agent behind a frontend-only service;
        returns the final record and the agent slot's counters."""
        with serving(cache_dir) as (service, url):
            agent = start_agent(url, tmp_path, name)
            try:
                record, _ = service.submit(job)
                final = ServiceClient(url, timeout=10.0).wait(
                    record.id, timeout=60.0
                )
            finally:
                agent.stop(timeout=10.0)
        assert final["state"] == "done", final.get("error")
        counters = agent.snapshot()["counters"]
        return final, counters.get("executor", {}).get("slot0", {})

    def test_local_slot_result_is_an_agent_cache_hit(self, tmp_path):
        """One ``cache_dir``, two daemons in turn: what a local slot
        stored, a cluster agent with an empty local cache reads."""
        shared = tmp_path / "shared"
        first, totals = self._run_local(shared, make_job(seed=11))
        assert totals.get("executed", 0) == 1

        second, slot = self._run_on_agent(
            shared, tmp_path, "agent-x", make_job(seed=11)
        )
        assert slot.get("cache_hits", 0) == 1
        assert slot.get("executed", 0) == 0
        assert second["result"] == first["result"]

    def test_agent_result_is_a_local_slot_cache_hit(self, tmp_path):
        """The other direction: what an agent reported, a local slot
        reads instead of simulating it again."""
        shared = tmp_path / "shared"
        first, slot = self._run_on_agent(
            shared, tmp_path, "agent-y", make_job(seed=12)
        )
        assert slot.get("executed", 0) == 1

        second, totals = self._run_local(shared, make_job(seed=12))
        assert totals.get("cache_hits", 0) == 1
        assert totals.get("executed", 0) == 0
        assert second["result"] == first["result"]
