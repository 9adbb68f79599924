"""The cache model: hits, LRU eviction, prefetch metadata, victims."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.common.table import EMPTY_SET
from repro.memsys.cache import BlockState, Cache


def tiny_cache() -> Cache:
    """4 sets x 2 ways of 64 B blocks."""
    return Cache(CacheConfig(size_bytes=512, ways=2))


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(5) is None
        cache.fill(5, BlockState())
        assert cache.lookup(5) is not None
        assert cache.contains(5)

    def test_len_and_occupancy(self):
        cache = tiny_cache()
        cache.fill(0, BlockState())
        cache.fill(1, BlockState())
        assert len(cache) == 2
        assert cache.occupancy() == pytest.approx(0.25)

    def test_refill_replaces_state_without_eviction(self):
        cache = tiny_cache()
        cache.fill(5, BlockState(prefetched=True))
        victim = cache.fill(5, BlockState(prefetched=False))
        assert victim is None
        assert not cache.lookup(5).prefetched
        assert len(cache) == 1


class TestLazySets:
    """Every set starts as the shared, never-filled ``EMPTY_SET``."""

    def test_fresh_cache_holds_no_set_of_its_own(self):
        cache = tiny_cache()
        assert all(entries is EMPTY_SET for entries in cache._sets)
        assert cache.lookup(5) is None and not cache.contains(5)
        assert cache.invalidate(5) is None
        assert len(cache) == 0 and list(cache.resident_blocks()) == []
        assert not EMPTY_SET

    def test_fill_allocates_exactly_its_set(self):
        cache = tiny_cache()
        cache.fill(6, BlockState())
        cache.fill(10, BlockState())  # the same set: 10 & 3 == 6 & 3
        own = [i for i, e in enumerate(cache._sets) if e is not EMPTY_SET]
        assert own == [cache.set_index(6)]
        assert list(cache.resident_blocks()) == [6, 10]
        assert not EMPTY_SET


class TestEviction:
    def test_lru_victim_within_set(self):
        cache = tiny_cache()
        # Blocks 0, 4, 8 all map to set 0 (4 sets).
        cache.fill(0, BlockState())
        cache.fill(4, BlockState())
        cache.lookup(0)  # 4 becomes LRU
        victim = cache.fill(8, BlockState())
        assert victim[0] == 4
        assert cache.contains(0) and cache.contains(8)

    def test_fill_reports_the_victim(self):
        cache = tiny_cache()
        first = BlockState()
        assert cache.fill(0, first) is None
        assert cache.fill(4, BlockState()) is None
        assert cache.fill(8, BlockState()) == (0, first)

    def test_invalidate(self):
        cache = tiny_cache()
        filled = BlockState()
        cache.fill(3, filled)
        assert cache.invalidate(3) is filled
        assert not cache.contains(3)
        assert cache.invalidate(3) is None

    def test_invalidate_missing(self):
        assert tiny_cache().invalidate(42) is None


class TestBlockState:
    def test_prefetch_metadata_roundtrip(self):
        cache = tiny_cache()
        cache.fill(7, BlockState(prefetched=True, ready_time=100.0))
        state = cache.lookup(7)
        assert state.prefetched
        assert not state.used
        assert state.ready_time == 100.0

    def test_resident_blocks(self):
        cache = tiny_cache()
        for block in (1, 2, 3):
            cache.fill(block, BlockState())
        assert set(cache.resident_blocks()) == {1, 2, 3}


class TestNonTouchProbes:
    """Read-only probes (``touch=False``) must not perturb replacement
    state.  The differential checker relies on this: a probe that
    silently refreshed LRU would make the harnessed run diverge from the
    bare one.  Pins the guard in ``Cache.lookup``
    for both the native OrderedDict order and the policy interface."""

    def test_probe_does_not_refresh_native_lru_order(self):
        cache = tiny_cache()
        # Blocks 0, 4, 8 all map to set 0 (4 sets).
        cache.fill(0, BlockState())
        cache.fill(4, BlockState())
        state = cache.lookup(0, touch=False)  # probe the LRU block
        assert state is not None
        victim = cache.fill(8, BlockState())
        # 0 is still the LRU victim: the probe did not refresh it
        assert victim[0] == 0

    def test_touching_lookup_still_refreshes(self):
        cache = tiny_cache()
        cache.fill(0, BlockState())
        cache.fill(4, BlockState())
        cache.lookup(0)  # default touch=True
        victim = cache.fill(8, BlockState())
        assert victim[0] == 4

    def test_probe_of_missing_block_is_inert(self):
        cache = tiny_cache()
        cache.fill(0, BlockState())
        assert cache.lookup(8, touch=False) is None
        assert cache.lookup(8) is None  # miss never touches either
        victim = cache.fill(4, BlockState())
        assert victim is None

    def test_probe_does_not_call_policy_touch(self):
        from repro.memsys.replacement import make_replacement

        policy = make_replacement("lru", num_sets=4, ways=2)
        touches = []
        original = policy.touch
        policy.touch = lambda s, b: (touches.append((s, b)), original(s, b))
        cache = Cache(CacheConfig(size_bytes=512, ways=2), policy=policy)
        cache.fill(0, BlockState())
        cache.fill(4, BlockState())
        touches.clear()
        assert cache.lookup(0, touch=False) is not None
        assert touches == []
        assert cache.lookup(0) is not None
        assert touches == [(0, 0)]
        victim = cache.fill(8, BlockState())
        assert victim[0] == 4  # 0 was refreshed by the touching lookup only


@given(blocks=st.lists(st.integers(min_value=0, max_value=255), max_size=200))
def test_capacity_invariant(blocks):
    """The cache never holds more blocks than its capacity, and any block
    just filled is resident."""
    cache = tiny_cache()
    for block in blocks:
        cache.fill(block, BlockState())
        assert cache.contains(block)
        assert len(cache) <= 8


@given(blocks=st.lists(st.integers(min_value=0, max_value=255), max_size=200))
def test_set_isolation(blocks):
    """Evictions only displace blocks of the same set."""
    cache = tiny_cache()
    filled = []
    for block in blocks:
        if not cache.contains(block):
            victim = cache.fill(block, BlockState())
            filled.append(block)
            if victim is not None:
                assert victim[0] % 4 == block % 4
