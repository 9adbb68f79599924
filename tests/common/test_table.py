"""The generic set-associative table: lookups, eviction, callbacks."""

import pytest
from hypothesis import given, strategies as st

from repro.common.table import SetAssociativeTable


class TestBasics:
    def test_insert_lookup(self):
        table = SetAssociativeTable(sets=4, ways=2)
        table.insert(10, "a")
        assert table.lookup(10) == "a"
        assert table.lookup(11) is None

    def test_overwrite_in_place(self):
        table = SetAssociativeTable(sets=4, ways=2)
        table.insert(10, "a")
        table.insert(10, "b")
        assert table.lookup(10) == "b"
        assert len(table) == 1

    def test_capacity(self):
        table = SetAssociativeTable(sets=4, ways=2)
        assert table.capacity == 8

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(sets=3, ways=2)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(sets=4, ways=0)

    def test_single_set_table(self):
        table = SetAssociativeTable(sets=1, ways=4)
        for key in range(4):
            table.insert(key, key)
        assert all(table.lookup(k) == k for k in range(4))


class TestEviction:
    def test_lru_eviction_within_set(self):
        table = SetAssociativeTable(sets=1, ways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)  # make 2 the LRU
        table.insert(3, "c")
        assert table.lookup(2, touch=False) is None
        assert table.lookup(1, touch=False) == "a"

    def test_eviction_callback_fires(self):
        evicted = []
        table = SetAssociativeTable(
            sets=1, ways=1, on_evict=lambda tag, payload: evicted.append((tag, payload))
        )
        table.insert(1, "a")
        table.insert(2, "b")
        assert evicted == [(1, "a")]

    def test_invalidate_fires_callback(self):
        evicted = []
        table = SetAssociativeTable(
            sets=1, ways=2, on_evict=lambda t, p: evicted.append(t)
        )
        table.insert(1, "a")
        assert table.invalidate(1) == "a"
        assert evicted == [1]
        assert table.lookup(1) is None

    def test_pop_is_silent(self):
        evicted = []
        table = SetAssociativeTable(
            sets=1, ways=2, on_evict=lambda t, p: evicted.append(t)
        )
        table.insert(1, "a")
        assert table.pop(1) == "a"
        assert evicted == []

    def test_invalidated_way_refilled_before_any_eviction(self):
        evicted = []
        table = SetAssociativeTable(
            sets=1, ways=2, on_evict=lambda t, p: evicted.append(t)
        )
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)  # 2 is now the LRU entry
        table.pop(1)  # frees the MRU way
        table.insert(3, "c")
        # the freed way takes the fill; the LRU entry is not evicted
        assert evicted == []
        assert table.lookup(2, touch=False) == "b"
        assert table.lookup(3, touch=False) == "c"

    def test_invalidate_missing_returns_none(self):
        table = SetAssociativeTable(sets=1, ways=1)
        assert table.invalidate(99) is None


class TestSplitIndexTag:
    """Bingo's trick: index with one key, tag with another."""

    def test_explicit_index_overrides_hash(self):
        table = SetAssociativeTable(sets=4, ways=2)
        table.insert(100, "x", index=2)
        assert table.lookup(100, index=2) == "x"
        # The entry lives only in set 2.
        others = [s for s in range(4) if s != 2]
        assert all(table.lookup(100, index=s) is None for s in others)

    def test_scan_set_sees_all_entries(self):
        table = SetAssociativeTable(sets=2, ways=4)
        table.insert(1, "a", index=0)
        table.insert(2, "b", index=0)
        scanned = table.scan_set(0)
        assert {(tag, payload) for _w, tag, payload in scanned} == {
            (1, "a"),
            (2, "b"),
        }

    def test_recency_rank_orders_by_use(self):
        table = SetAssociativeTable(sets=1, ways=3)
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)
        ranks = {
            tag: table.recency_rank(0, way) for way, tag, _p in table.scan_set(0)
        }
        assert ranks[1] < ranks[2]


class TestItems:
    def test_items(self):
        table = SetAssociativeTable(sets=4, ways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        assert dict(table.items()) == {1: "a", 2: "b"}


class TestLazySets:
    """A set's storage is allocated on its first fill."""

    def test_never_filled_set_scans_empty(self):
        table = SetAssociativeTable(sets=8, ways=4)
        table.insert(1, "a", index=3)
        assert table.scan_set(0) == []
        assert table.scan_set(7) == []
        assert [tag for _w, tag, _p in table.scan_set(3)] == [1]

    def test_items_skip_never_filled_sets(self):
        table = SetAssociativeTable(sets=8, ways=2)
        assert table.items() == []
        table.insert(5, "a", index=6)
        assert table.items() == [(5, "a")]


@given(
    keys=st.lists(st.integers(min_value=0, max_value=1000), max_size=100),
    sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.integers(min_value=1, max_value=4),
)
def test_occupancy_never_exceeds_capacity(keys, sets, ways):
    table = SetAssociativeTable(sets=sets, ways=ways)
    for key in keys:
        table.insert(key, key)
    assert len(table) <= table.capacity
    # Most recently inserted key is always present.
    if keys:
        assert table.lookup(keys[-1]) == keys[-1]


@given(keys=st.lists(st.integers(min_value=0, max_value=50), max_size=60,
                     unique=True))
def test_within_capacity_nothing_is_lost(keys):
    table = SetAssociativeTable(sets=64, ways=4)
    for key in keys:
        table.insert(key, key * 2)
    # 60 unique keys over 256 slots: collisions possible but each set holds
    # 4, and the hash spreads 0..50 over 64 sets - verify no false misses
    # for keys that were never displaced (len(table) == inserted count
    # implies nothing was evicted).
    if len(table) == len(keys):
        for key in keys:
            assert table.lookup(key) == key * 2
