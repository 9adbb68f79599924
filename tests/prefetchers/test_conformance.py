"""Conformance suite: invariants every registered prefetcher must satisfy.

Parametrised over the whole zoo; any new prefetcher added to the
registry is automatically held to the same contract.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.prefetchers.base import AccessInfo
from repro.prefetchers.registry import available_prefetchers, make_prefetcher

ALL = sorted(available_prefetchers())


def make_info(block: int, pc: int = 0x400) -> AccessInfo:
    return AccessInfo(pc=pc, block=block)


@pytest.mark.parametrize("name", ALL)
class TestContract:
    def test_returns_prefetch_requests(self, name):
        pf = make_prefetcher(name)
        for block in range(64):
            out = pf.on_access(make_info(block))
            assert isinstance(out, list)
            assert all(isinstance(candidate, int) for candidate in out)

    def test_deterministic_given_same_stream(self, name):
        a = make_prefetcher(name)
        b = make_prefetcher(name)
        stream = [random.Random(7).randrange(4096) for _ in range(300)]
        out_a = [tuple(a.on_access(make_info(x))) for x in stream]
        out_b = [tuple(b.on_access(make_info(x))) for x in stream]
        assert out_a == out_b

    def test_eviction_hook_tolerates_unknown_blocks(self, name):
        pf = make_prefetcher(name)
        pf.on_eviction(123456, was_used=False)  # must not raise

    def test_storage_bits_nonnegative_and_stable(self, name):
        pf = make_prefetcher(name)
        before = pf.storage_bits
        for block in range(128):
            pf.on_access(make_info(block))
        assert pf.storage_bits == before >= 0


@settings(deadline=None, max_examples=10)
@given(blocks=st.lists(st.integers(min_value=0, max_value=1 << 30),
                       min_size=1, max_size=200))
@pytest.mark.parametrize("name", ALL)
def test_never_crashes_on_arbitrary_streams(name, blocks):
    pf = make_prefetcher(name)
    for block in blocks:
        requests = pf.on_access(make_info(block))
        assert len(requests) < 1000  # no unbounded fan-out


@pytest.mark.parametrize("name", ALL)
class TestTraceConformance:
    """Every prefetcher, run in a real engine under a recording sink,
    must produce a well-formed event stream."""

    _cache = {}

    @pytest.fixture
    def traced(self, name):
        # one engine run per prefetcher, shared by all four checks
        if name not in self._cache:
            from repro.common.config import small_system
            from repro.obs.sinks import RecordingSink
            from repro.sim.runner import run_simulation

            sink = RecordingSink()
            result = run_simulation(
                "em3d",
                prefetcher=name,
                sink=sink,
                system=small_system(num_cores=4),
                instructions_per_core=4000,
                warmup_instructions=500,
                seed=11,
                scale=0.02,
            )
            self._cache[name] = (result, sink.events)
        return self._cache[name]

    def test_prefetch_addresses_are_block_aligned(self, name, traced):
        _result, events = traced
        block_bytes = 64
        for event in events:
            if event.kind == "prefetch_issued":
                assert event.address % block_bytes == 0
                assert event.address // block_bytes == event.block
                assert event.ready_time >= event.time

    def test_fills_only_for_issued_prefetches(self, name, traced):
        _result, events = traced
        issued, filled = set(), set()
        for event in events:
            if event.kind == "prefetch_issued":
                issued.add(event.block)
            elif event.kind == "prefetch_fill":
                assert event.block in issued
                filled.add(event.block)
        assert filled == issued

    def test_vote_decisions_come_only_from_bingo(self, name, traced):
        _result, events = traced
        votes = [e for e in events if e.kind == "vote_decision"]
        if name == "bingo":
            assert votes
            for vote in votes:
                assert vote.matched in ("none", "pc_address", "pc_offset")
                assert 0.0 < vote.threshold <= 1.0
        else:
            assert not votes

    def test_demand_events_cover_every_llc_access(self, name, traced):
        result, events = traced
        llc = result.raw_stats["memsys"]["llc"]
        demands = [e for e in events
                   if e.kind in ("demand_hit", "demand_miss")]
        assert len(demands) == llc["demand_accesses"]
        for event in demands:
            assert 0 <= event.core_id < 4
            assert event.block >= 0 and event.time >= 0.0
