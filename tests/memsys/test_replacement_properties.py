"""Property tests for the replacement zoo: OPT dominance, LRU identity.

The centrepiece is Belady's MIN theorem, checked as an executable
property: on any reference stream, any power-of-two set count, and any
associativity, the ``opt`` policy's miss count in the standalone replay
harness is a lower bound on every heuristic's.  The harness is exactly
the setting where the theorem applies — one demand-fill level, no
timing, no prefetching, each set an independent fully-known substream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.replacement import (
    NEVER,
    ReplacementError,
    available_replacements,
)
from tests.memsys.replay_harness import SequenceOracle, replay_trace

HEURISTICS = sorted(
    name for name in available_replacements()
    if name not in ("opt", "lru-interface")
)

# small geometries + a tight block universe force frequent evictions,
# which is where policies actually differ
geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]),       # num_sets (power of two)
    st.integers(min_value=1, max_value=8),  # ways
)
streams = st.lists(
    st.integers(min_value=0, max_value=95), min_size=1, max_size=400
)


class TestOptDominance:
    @given(blocks=streams, geometry=geometries, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_opt_lower_bounds_every_heuristic(self, blocks, geometry, data):
        """Belady's MIN: opt misses <= heuristic misses, always."""
        num_sets, ways = geometry
        opt = replay_trace(blocks, num_sets, ways, policy="opt")
        name = data.draw(st.sampled_from(HEURISTICS))
        heuristic = replay_trace(blocks, num_sets, ways, policy=name)
        assert opt.misses <= heuristic.misses, (
            f"opt={opt.misses} > {name}={heuristic.misses} on "
            f"{num_sets}x{ways}, stream={blocks}"
        )
        # and both agree on the stream length
        assert opt.accesses == heuristic.accesses == len(blocks)

    def test_opt_dominates_whole_zoo_on_random_workloads(self):
        """Deterministic sweep: every heuristic, several seeds, one shot."""
        for seed in (11, 23, 47):
            rng = random.Random(seed)
            blocks = [rng.randrange(160) for _ in range(3000)]
            opt = replay_trace(blocks, 8, 4, policy="opt")
            for name in HEURISTICS + ["lru-interface"]:
                stats = replay_trace(blocks, 8, 4, policy=name)
                assert opt.misses <= stats.misses, (seed, name)

    def test_opt_strictly_beats_lru_on_a_looping_scan(self):
        """A cyclic scan one block larger than capacity: LRU misses every
        access (the classic pathology), OPT keeps most of the loop."""
        ways = 8
        loop = list(range(ways + 1))  # all map to set 0 of a 1-set cache
        blocks = loop * 50
        lru = replay_trace(blocks, 1, ways, policy="lru")
        opt = replay_trace(blocks, 1, ways, policy="opt")
        assert lru.misses == len(blocks)  # total churn
        assert opt.misses < lru.misses / 4  # MIN keeps ways-1 of the loop

    @given(blocks=streams, geometry=geometries)
    @settings(max_examples=40, deadline=None)
    def test_lru_interface_matches_lru(self, blocks, geometry):
        """The interface-routed LRU is the same policy as native LRU."""
        num_sets, ways = geometry
        a = replay_trace(blocks, num_sets, ways, policy="lru")
        b = replay_trace(blocks, num_sets, ways, policy="lru-interface")
        assert a.victims == b.victims
        assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    @given(blocks=streams, geometry=geometries, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_conservation_holds_for_any_policy(self, blocks, geometry, data):
        num_sets, ways = geometry
        name = data.draw(st.sampled_from(sorted(available_replacements())))
        stats = replay_trace(blocks, num_sets, ways, policy=name)
        assert stats.hits + stats.misses == len(blocks)
        assert 0 <= stats.misses - stats.evictions <= num_sets * ways
        assert len(stats.victims) == stats.evictions


class TestSequenceOracle:
    def test_next_use_is_the_literal_position(self):
        oracle = SequenceOracle([5, 7, 5, 9])
        assert oracle.next_use(5) == 0
        oracle.observe(5)
        assert oracle.next_use(5) == 2
        oracle.observe(7)
        oracle.observe(5)
        assert oracle.next_use(5) == NEVER
        assert oracle.next_use(9) == 3
        assert oracle.next_use(12345) == NEVER


class TestPlantedBugInReplay:
    """The replay harness itself must catch a contract violation — the
    same off-by-one-set bug the Cache-level suite plants, routed through
    ``replay_trace`` via a temporarily registered policy."""

    def test_replay_catches_off_by_one_victim(self):
        from repro.memsys.replacement import (
            LruReplacement,
            _REGISTRY,
            register_replacement,
        )

        class BuggyLru(LruReplacement):
            name = "buggy-lru"

            def victim(self, set_index, incoming):
                return super().victim((set_index + 1) % self.num_sets, incoming)

        register_replacement("buggy-lru-test", BuggyLru)
        try:
            # sets 0 and 1 both populated, then set 0 overflows: the
            # buggy victim comes from set 1 and is not resident in set 0
            blocks = [1, 9, 17, 25] + [0, 8, 16, 24, 32]
            with pytest.raises(ReplacementError, match="not resident"):
                replay_trace(blocks, num_sets=8, ways=4, policy="buggy-lru-test")
        finally:
            # keep the registry (and the parameterized suites that
            # enumerate it at import time) clean for other test files
            _REGISTRY.pop("buggy-lru-test", None)

    def test_clean_policy_passes_the_same_stream(self):
        blocks = [1, 9, 17, 25] + [0, 8, 16, 24, 32]
        stats = replay_trace(blocks, num_sets=8, ways=4, policy="lru")
        assert stats.evictions == 1
        assert stats.victims == [0]
