"""A finished run frees itself by reference counting.

No object of a run's engine may reference its owner back (a cache its
hierarchy, a table its prefetcher), or every finished run is cyclic
garbage that only a collector pass reclaims.  Each case runs its job
once to warm imports and memos, then runs it again with the collector
off and asserts that a collection finds nothing unreachable.
"""

import gc

import pytest

from repro.memsys.replacement import available_replacements
from repro.obs.sinks import RecordingSink
from repro.prefetchers.registry import available_prefetchers
from repro.sim.executor import SimJob, execute_job, execute_job_checked
from repro.sim.runner import run_simulation

QUICK = dict(instructions_per_core=1500, warmup_instructions=300)


def cyclic_garbage(run) -> int:
    """Unreachable objects a collection finds after a second ``run()``."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("prefetcher", available_prefetchers())
def test_every_prefetcher(prefetcher):
    job = SimJob.build("mix3", prefetcher, **QUICK)
    assert cyclic_garbage(lambda: execute_job(job)) == 0


@pytest.mark.parametrize("replacement", available_replacements())
def test_every_llc_policy(replacement):
    job = SimJob.build("zipf", "bingo", replacement=replacement, **QUICK)
    assert cyclic_garbage(lambda: execute_job(job)) == 0


def test_l1_training():
    job = SimJob.build("mix3", "sms", train_at="l1", **QUICK)
    assert cyclic_garbage(lambda: execute_job(job)) == 0


def test_in_memory_trace_sink():
    def run():
        sink = RecordingSink()
        run_simulation("mix3", "bingo", sink=sink, **QUICK)
        assert sink.events

    assert cyclic_garbage(run) == 0


def test_checked_run():
    """The invariant checker and the hierarchy reference each other
    while the run is checked; the checked runner unbinds them."""
    job = SimJob.build("mix3", "bingo", **QUICK)
    assert cyclic_garbage(lambda: execute_job_checked(job)) == 0
