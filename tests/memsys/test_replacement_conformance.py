"""Conformance suite: invariants every replacement policy must satisfy.

Parametrised over the whole registry, plus the replay harness's exact
Belady (``opt``) — a policy added to ``repro.memsys.replacement`` is
automatically held to the same contract:

* the victim is always a *resident* block of the indexed set;
* set occupancy is conserved (never exceeds ways; one eviction per
  over-capacity fill, zero otherwise);
* victim choice is a deterministic function of the access history;
* driven inside the real :class:`~repro.memsys.cache.Cache`, eviction
  events reach the trace sink exactly once per victim.
"""

import random

import pytest

from repro.common.config import CacheConfig
from repro.memsys.cache import BlockState, Cache
from repro.memsys.replacement import (
    ReplacementError,
    available_replacements,
    make_replacement,
)
from repro.obs.sinks import RecordingSink
from tests.memsys.replay_harness import make_policy, replay_trace

# every registered policy, native LRU forced through the interface, and
# the harness's Belady
ALL = sorted([*available_replacements(), "lru-interface", "opt"])

pytestmark = pytest.mark.usefixtures("lru_interface")

SETS, WAYS = 8, 4


def stream(seed: int, length: int = 3000, universe: int = 256):
    rng = random.Random(seed)
    return [rng.randrange(universe) for _ in range(length)]


def fresh_policy(name: str):
    return make_policy(name, SETS, WAYS)


def config() -> CacheConfig:
    return CacheConfig(size_bytes=SETS * 64 * WAYS, ways=WAYS)


@pytest.mark.parametrize("name", ALL)
class TestContract:
    def test_victim_always_resident(self, name):
        """Every eviction's victim was resident; non-resident victims
        raise ReplacementError inside replay_trace, so survival of the
        full stream plus the model cross-check proves the invariant."""
        blocks = stream(seed=1)
        stats = replay_trace(blocks, SETS, WAYS, policy=name)
        # replay the victim sequence against an independent residency model
        victims = iter(stats.victims)
        policy_victims = list(stats.victims)
        model_evictions = 0
        seen = [set() for _ in range(SETS)]
        for block in blocks:
            s = block % SETS
            if block in seen[s]:
                continue
            if len(seen[s]) >= WAYS:
                victim = next(victims)
                assert victim in seen[s], (
                    f"{name}: victim {victim} not resident in set {s}"
                )
                seen[s].remove(victim)
                model_evictions += 1
            seen[s].add(block)
        assert model_evictions == stats.evictions == len(policy_victims)

    def test_occupancy_conserved(self, name):
        """misses - evictions == final residency, and no set overflows."""
        blocks = stream(seed=2)
        stats = replay_trace(blocks, SETS, WAYS, policy=name)
        assert stats.accesses == len(blocks)
        assert stats.hits + stats.misses == stats.accesses
        resident = stats.misses - stats.evictions
        assert 0 <= resident <= SETS * WAYS
        # every set's arithmetic individually: re-derive per-set counts
        per_set_fills = [0] * SETS
        for block in blocks:
            per_set_fills[block % SETS] += 1
        assert sum(per_set_fills) == stats.accesses

    def test_deterministic_victim_choice(self, name):
        """Identical streams produce identical victim sequences."""
        blocks = stream(seed=3)
        a = replay_trace(blocks, SETS, WAYS, policy=name)
        b = replay_trace(blocks, SETS, WAYS, policy=name)
        assert a.victims == b.victims
        assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    def test_eviction_events_fire_once_per_victim(self, name):
        """Inside the real Cache, each eviction emits exactly one
        Eviction event through the obs sink, and the event's block is
        the policy's victim."""
        sink = RecordingSink()
        evicted = []
        cache = Cache(config(), name="llc", sink=sink, policy=fresh_policy(name))
        for block in stream(seed=4, length=1500, universe=128):
            if cache.lookup(block) is None:
                victim = cache.fill(block, BlockState())
                if victim is not None:
                    evicted.append(victim[0])
        events = [e for e in sink.events if e.kind == "eviction"]
        assert [e.block for e in events] == evicted
        assert len(events) == cache.stats.get("evictions")
        # conservation inside the cache model too
        assert len(cache) <= SETS * WAYS
        for entries in cache._sets:
            assert len(entries) <= WAYS

    def test_policy_survives_invalidation(self, name):
        """External invalidations must not desynchronise the policy:
        later victims must still be resident."""
        rng = random.Random(5)
        cache = Cache(config(), policy=fresh_policy(name))
        for _ in range(2000):
            block = rng.randrange(128)
            if rng.random() < 0.1:
                cache.invalidate(block)
                continue
            if cache.lookup(block) is None:
                cache.fill(block, BlockState())  # raises on a bad victim
        assert len(cache) <= SETS * WAYS

    def test_geometry_mismatch_rejected(self, name):
        with pytest.raises(ValueError, match="geometry"):
            Cache(config(), policy=make_policy(name, SETS * 2, WAYS))


class TestRegistry:
    def test_zoo_is_complete(self):
        assert {"lru", "fifo", "lfu", "arc", "2q"} <= set(available_replacements())

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            make_replacement("nope", SETS, WAYS)

    def test_bad_geometry(self):
        with pytest.raises(ValueError, match="positive"):
            make_replacement("lru", 0, 4)

    def test_replay_requires_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            replay_trace([1, 2, 3], num_sets=3, ways=2)


class TestLruEquivalence:
    """lru-interface must be *behaviourally identical* to the cache
    model's native OrderedDict path — same victims, same hit/miss
    classification, on any operation sequence."""

    def test_victim_sequences_match_native_lru(self):
        blocks = stream(seed=6, length=4000)
        native = Cache(config())  # policy=None: the built-in fast path
        iface = Cache(config(), policy=fresh_policy("lru-interface"))
        for block in blocks:
            native_hit = native.lookup(block) is not None
            iface_hit = iface.lookup(block) is not None
            assert native_hit == iface_hit
            if not native_hit:
                native_victim = native.fill(block, BlockState())
                iface_victim = iface.fill(block, BlockState())
                native_block = native_victim[0] if native_victim else None
                iface_block = iface_victim[0] if iface_victim else None
                assert native_block == iface_block
        assert sorted(native.resident_blocks()) == sorted(
            iface.resident_blocks()
        )


class OffByOneSetPolicy:
    """The planted bug: a victim chosen from the *wrong set* (an
    off-by-one set index), as a botched refactor of the victim lookup
    would produce.  The conformance harness must catch it — the victim
    it returns is (almost always) not resident in the indexed set."""

    name = "off-by-one"

    def __init__(self, num_sets: int, ways: int) -> None:
        from repro.memsys.replacement import LruReplacement

        self.num_sets = num_sets
        self.ways = ways
        self._inner = LruReplacement(num_sets, ways)

    def touch(self, set_index, block):
        self._inner.touch(set_index, block)

    def insert(self, set_index, block):
        self._inner.insert(set_index, block)

    def remove(self, set_index, block):
        self._inner.remove(set_index, block)

    def victim(self, set_index, incoming):
        return self._inner.victim((set_index + 1) % self.num_sets, incoming)


def overflow_set_zero(cache: Cache) -> None:
    """Populate set 1 (the wrong-set victims), then overflow set 0."""
    for i in range(WAYS):
        cache.fill(i * SETS + 1, BlockState())
    for i in range(WAYS + 1):
        cache.fill(i * SETS, BlockState())


class TestPlantedBug:
    def test_harness_catches_off_by_one_victim(self):
        """Proof the conformance net has no holes for this bug class:
        the buggy policy trips ReplacementError at the first eviction —
        it nominates a set-1 resident as set 0's victim."""
        cache = Cache(config(), policy=OffByOneSetPolicy(SETS, WAYS))
        with pytest.raises(ReplacementError, match="not resident"):
            overflow_set_zero(cache)

    def test_error_names_the_offender(self):
        cache = Cache(config(), policy=OffByOneSetPolicy(SETS, WAYS))
        try:
            overflow_set_zero(cache)
        except ReplacementError as exc:
            assert "off-by-one" in str(exc)  # the policy's own name
            assert "set 0" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected ReplacementError")

    def test_correct_policy_passes_same_scenario(self):
        """The same drive sequence is clean for the unbugged policy —
        the failure above is the bug, not the scenario."""
        cache = Cache(config(), policy=fresh_policy("lru-interface"))
        overflow_set_zero(cache)
        assert len(cache) == WAYS + WAYS  # one eviction happened in set 0
