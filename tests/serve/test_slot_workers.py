"""Slot workers of the service and the worker agent.

Each slot's executor keeps one warm worker process.  The service and
the agent fork them in ``start()`` before any of their threads exist —
a child forked from a threaded process can inherit a lock held by a
thread it does not have — and close them when they drain or stop.
"""

import threading
import time

import pytest

from repro.serve import ServiceConfig, SimulationService, WorkerAgent
from repro.sim.executor import Executor

SLOT_THREAD_PREFIXES = ("serve-", "worker-")


@pytest.fixture
def forks(monkeypatch):
    """One entry per :meth:`Executor.start_worker` call: the service and
    agent threads alive at that moment."""
    seen = []
    original = Executor.start_worker

    def recording(self):
        seen.append(sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith(SLOT_THREAD_PREFIXES)
        ))
        original(self)

    monkeypatch.setattr(Executor, "start_worker", recording)
    return seen


class IdleFrontend:
    """The slice of :class:`~repro.serve.client.ServiceClient` an agent
    calls, answering every lease poll with "no work"."""

    base_url = "http://frontend.invalid"

    def cluster_register(self, node_id, capacity=1):
        return {"heartbeat_interval": 0.05, "cache_enabled": False}

    def cluster_lease(self, node_id, wait=0.0):
        time.sleep(0.02)
        return None

    def cluster_heartbeat(self, node_id, inflight=0, leases=None):
        return 0


def workers_of(executors):
    return [executor._worker[0] for executor in executors]


class TestService:
    def test_slot_workers_fork_before_any_thread(self, forks):
        service = SimulationService(ServiceConfig(workers=2, cache_dir=None))
        service.start()
        try:
            assert forks == [[], []]
            assert any(t.name == "serve-slot-0" for t in threading.enumerate())
        finally:
            service.drain(timeout=10.0)

    def test_drain_closes_the_slot_workers(self):
        service = SimulationService(
            ServiceConfig(workers=2, cache_dir=None)
        ).start()
        workers = workers_of(service._executors)
        assert all(worker.is_alive() for worker in workers)
        service.drain(timeout=10.0)
        assert not any(worker.is_alive() for worker in workers)


class TestAgent:
    def test_slot_workers_fork_before_any_thread(self, forks):
        agent = WorkerAgent(
            "http://frontend.invalid",
            node_id="idle",
            capacity=2,
            cache_dir=None,
            client=IdleFrontend(),
        )
        agent.start()
        try:
            assert forks == [[], []]
            assert any(t.name == "worker-slot-0" for t in threading.enumerate())
        finally:
            agent.stop(timeout=10.0)

    def test_stop_closes_the_slot_workers(self):
        agent = WorkerAgent(
            "http://frontend.invalid",
            node_id="idle",
            capacity=2,
            cache_dir=None,
            client=IdleFrontend(),
        ).start()
        workers = workers_of(agent._executors)
        assert all(worker.is_alive() for worker in workers)
        agent.stop(timeout=10.0)
        assert not any(worker.is_alive() for worker in workers)
