"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time

import pytest

from repro.common.addresses import AddressMap
from repro.common.config import small_system


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_dir(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a session temp dir.

    Jobs compile workload traces (and may store results) under the
    cache root by default; the suite must never write into the
    developer's real ``~/.cache/repro``.  Tests that care about the
    variable override it per-test with ``monkeypatch``.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-cache")
    )
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


#: thread-name prefixes of the service (slots, reaper, HTTP), cluster
#: agents, and experiment runners
SERVICE_THREAD_PREFIXES = ("serve-", "worker-", "experiment-")


def _service_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(SERVICE_THREAD_PREFIXES)
    }


@pytest.fixture(autouse=True)
def _no_leaked_service_threads():
    """Fail a test that leaves a service, agent, or experiment thread
    alive after its teardown.

    A leaked thread keeps polling for the rest of the session and can
    perturb later tests.  Threads that are already on their way out
    get a few seconds' grace; threads alive before the test are not
    its fault.
    """
    before = _service_threads()
    yield
    deadline = time.monotonic() + 5.0
    leaked = _service_threads() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = {thread for thread in leaked if thread.is_alive()}
    if leaked:
        pytest.fail(
            "test leaked threads: "
            + ", ".join(sorted(thread.name for thread in leaked))
        )


@pytest.fixture(autouse=True)
def _no_leaked_child_processes():
    """Fail a test that leaves a ``multiprocessing`` child alive after
    its teardown: an executor's warm worker it never closed, or a pool
    it never shut down.

    Children on their way out (a worker killed by its executor's
    finalizer) get a few seconds' grace; children alive before the test
    are not its fault.
    """
    before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 5.0
    leaked = set(multiprocessing.active_children()) - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = {child for child in leaked if child.is_alive()}
    if leaked:
        pytest.fail(
            "test leaked child processes: "
            + ", ".join(sorted(f"{c.name} (pid {c.pid})" for c in leaked))
        )


@pytest.fixture
def amap() -> AddressMap:
    """The paper's geometry: 64 B blocks, 2 KB regions, 4 KB pages."""
    return AddressMap()


@pytest.fixture
def tiny_map() -> AddressMap:
    """A small geometry (8 blocks/region) for exhaustive table tests."""
    return AddressMap(block_size=64, region_size=512, page_size=1024)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_system():
    """One-core scaled-down system for fast end-to-end tests."""
    return small_system(num_cores=1)


# ---------------------------------------------------------------------------
# Fault-injection workloads (executor crash isolation + serve supervisor)
# ---------------------------------------------------------------------------


class TwoArgError(Exception):
    """Pickles, but does not unpickle: ``args`` holds one value while
    ``__init__`` wants two."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class CountedError(Exception):
    """Unpickles with a garbled message: unpickling passes the formatted
    message back through ``__init__``, which counts its characters."""

    def __init__(self, problems):
        super().__init__(f"{len(problems)} problem(s): " + ", ".join(problems))


def _register_fault_workloads() -> None:
    """Register single-core workloads that misbehave on purpose.

    Registered in the *test* process; executor worker processes see them
    because executors fork their workers (tests that rely on them skip
    when fork is unavailable) — so register them, and set
    ``$REPRO_FAULT_DIR``, before a service starts.  ``crash_once``
    coordinates through a sentinel file under ``$REPRO_FAULT_DIR`` so
    the first attempt SIGKILLs its worker and every later attempt
    succeeds — the shape of a transient OOM kill.
    """
    import signal
    import time as _time

    from repro.cpu.trace import TraceRecord
    from repro.workloads.base import homogeneous
    from repro.workloads.registry import register_workload

    def _records(base: int):
        addr = base
        pc = 0x400000
        while True:
            yield TraceRecord.load(pc, addr)
            addr += 64

    def crash_once(scale: float = 1.0):
        def stream(rng, core_id):
            sentinel = os.path.join(
                os.environ["REPRO_FAULT_DIR"], "crash-once"
            )
            if not os.path.exists(sentinel):
                with open(sentinel, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return _records(0x10000)

        return homogeneous("crash_once", stream, num_cores=1)

    def crash_always(scale: float = 1.0):
        def stream(rng, core_id):
            os.kill(os.getpid(), signal.SIGKILL)
            return _records(0x10000)  # pragma: no cover - never reached

        return homogeneous("crash_always", stream, num_cores=1)

    def raise_always(scale: float = 1.0):
        def stream(rng, core_id):
            raise RuntimeError("deterministic workload bug")

        return homogeneous("raise_always", stream, num_cores=1)

    def raise_unpicklable(scale: float = 1.0):
        class LocalError(Exception):
            """Defined in a function, so pickle cannot find it by name."""

        def stream(rng, core_id):
            raise LocalError("not importable")

        return homogeneous("raise_unpicklable", stream, num_cores=1)

    def raise_unloadable(scale: float = 1.0):
        def stream(rng, core_id):
            raise TwoArgError("config", "bad")

        return homogeneous("raise_unloadable", stream, num_cores=1)

    def raise_garbled(scale: float = 1.0):
        def stream(rng, core_id):
            raise CountedError(["late", "lost"])

        return homogeneous("raise_garbled", stream, num_cores=1)

    def sleep_forever(scale: float = 1.0):
        def stream(rng, core_id):
            def gen():
                yield from _records(0x10000)

            # sleep at stream construction: the engine blocks before the
            # first record, so any wall-clock timeout fires deterministically
            _time.sleep(600)
            return gen()  # pragma: no cover - killed long before

        return homogeneous("sleep_forever", stream, num_cores=1)

    def slow_ok(scale: float = 1.0):
        def stream(rng, core_id):
            _time.sleep(0.4)
            return _records(0x10000)

        return homogeneous("slow_ok", stream, num_cores=1)

    for factory in (crash_once, crash_always, raise_always,
                    raise_unpicklable, raise_unloadable, raise_garbled,
                    sleep_forever, slow_ok):
        register_workload(factory.__name__, factory, replace=True)


@pytest.fixture(scope="session")
def fault_workloads() -> None:
    """Ensure the misbehaving test workloads are registered."""
    _register_fault_workloads()


@pytest.fixture
def fault_dir(tmp_path, monkeypatch, fault_workloads):
    """A fresh sentinel directory for the ``crash_once`` workload."""
    path = tmp_path / "faults"
    path.mkdir()
    monkeypatch.setenv("REPRO_FAULT_DIR", str(path))
    return path
