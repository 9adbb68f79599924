"""The generic set-associative table: lookups, eviction, callbacks."""

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_insert_reports_the_victim(self):
        table = SetAssociativeTable(sets=1, ways=1)
        assert table.insert(1, "a") is None
        assert table.insert(2, "b") == (1, "a")
        assert table.insert(2, "c") is None  # an overwrite displaces nothing

    def test_invalidate_reports_the_payload(self):
        table = SetAssociativeTable(sets=1, ways=2)
        table.insert(1, "a")
        assert table.invalidate(1) == "a"
        assert table.lookup(1) is None

    def test_pop_is_silent(self):
        """``pop`` removes only the entry asked for."""
        table = SetAssociativeTable(sets=1, ways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        assert table.pop(1) == "a"
        assert table.items() == [(2, "b")]

    def test_invalidated_way_refilled_before_any_eviction(self):
        table = SetAssociativeTable(sets=1, ways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)  # 2 is now the LRU entry
        table.pop(1)  # frees the MRU way
        # the freed way takes the fill; the LRU entry is not evicted
        assert table.insert(3, "c") is None
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
        assert {(tag, payload) for tag, payload in scanned} == {
            (1, "a"),
            (2, "b"),
        }

    def test_scan_set_lists_least_recent_first(self):
        table = SetAssociativeTable(sets=1, ways=3)
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)
        assert [tag for tag, _p in table.scan_set(0)] == [2, 1]


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
        assert [tag for tag, _p in table.scan_set(3)] == [1]

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


class WaySlotModel:
    """The way-slot table that each set's ``OrderedDict`` replaced.

    A fill takes the lowest free way, else the LRU way; a fill or a
    touching hit moves the way to the front of the set's recency order;
    ``pop`` and ``invalidate`` free the way in place, leaving its stale
    place in the order.
    """

    def __init__(self, sets, ways):
        self.slots = [[None] * ways for _ in range(sets)]  # (tag, payload)
        self.order = [list(range(ways)) for _ in range(sets)]  # MRU first
        self.evicted = []

    def _way(self, key, index):
        for way, entry in enumerate(self.slots[index]):
            if entry is not None and entry[0] == key:
                return way
        return None

    def _to_front(self, index, way):
        self.order[index].remove(way)
        self.order[index].insert(0, way)

    def lookup(self, key, index, touch):
        way = self._way(key, index)
        if way is None:
            return None
        if touch:
            self._to_front(index, way)
        return self.slots[index][way][1]

    def insert(self, key, payload, index):
        slots = self.slots[index]
        way = self._way(key, index)
        if way is None:
            free = [w for w, entry in enumerate(slots) if entry is None]
            way = free[0] if free else self.order[index][-1]
            if slots[way] is not None:
                self.evicted.append(slots[way])
        slots[way] = (key, payload)
        self._to_front(index, way)

    def remove(self, key, index, fire):
        way = self._way(key, index)
        if way is None:
            return None
        entry, self.slots[index][way] = self.slots[index][way], None
        if fire:
            self.evicted.append(entry)
        return entry[1]

    def by_recency(self, index):
        """Valid pairs by recency rank, highest rank (LRU) first."""
        slots = self.slots[index]
        return [slots[w] for w in reversed(self.order[index]) if slots[w]]


@given(
    ops=st.lists(
        st.tuples(
            # fills outnumber removals, so sets overflow and evict
            st.sampled_from(
                ["insert", "insert", "insert", "lookup", "peek", "pop", "invalidate"]
            ),
            st.integers(min_value=0, max_value=11),  # key
            st.integers(min_value=0, max_value=3),  # explicit set index
        ),
        min_size=30,
        max_size=200,
    )
)
@settings(deadline=None)
def test_matches_the_way_slot_table(ops):
    """Same payloads, same victims in the same order, and each set listed
    in the model's recency order, so ``scan_set(i)[-1]`` is the model's
    rank-0 entry.  The victims are what ``insert`` and ``invalidate``
    return."""
    evicted = []
    table = SetAssociativeTable(sets=4, ways=3)
    model = WaySlotModel(sets=4, ways=3)
    for step, (op, key, index) in enumerate(ops):
        if op == "insert":
            victim = table.insert(key, step, index=index)
            if victim is not None:
                evicted.append(victim)
            model.insert(key, step, index)
        elif op in ("lookup", "peek"):
            touch = op == "lookup"
            assert table.lookup(key, index=index, touch=touch) == model.lookup(
                key, index, touch
            )
        else:
            remove = table.invalidate if op == "invalidate" else table.pop
            payload = remove(key, index=index)
            assert payload == model.remove(key, index, fire=op == "invalidate")
            if payload is not None and op == "invalidate":
                evicted.append((key, payload))
        assert evicted == model.evicted
        for i in range(4):
            assert table.scan_set(i) == model.by_recency(i)
    assert sorted(table.items()) == sorted(
        pair for i in range(4) for pair in model.by_recency(i)
    )
    assert len(table) == len(table.items())
