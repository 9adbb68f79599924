"""Filter and accumulation tables: graduation and residency commits.

Each is a plain :class:`SetAssociativeTable` of region records, built
the way :class:`RegionPrefetcher` builds it: ``invalidate`` returns the
record it removed and a capacity-displacing ``insert`` the region and
record it displaced, which the front end commits.
"""

from hypothesis import given, strategies as st

from repro.common.bitvec import Footprint
from repro.common.table import SetAssociativeTable
from repro.core.regions import RegionPrefetcher, RegionRecord
from repro.prefetchers.base import AccessInfo


def make_record(offset=0, pc=0x400) -> RegionRecord:
    footprint = Footprint(32)
    footprint.set(offset)
    return RegionRecord(
        trigger_pc=pc, trigger_offset=offset, trigger_block=offset, footprint=footprint
    )


class TestFilterTable:
    def test_insert_lookup_remove(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.insert(7, make_record())
        assert table.lookup(7) is not None
        assert table.pop(7) is not None
        assert table.lookup(7) is None
        assert len(table) == 0

    def test_remove_missing(self):
        assert SetAssociativeTable(sets=8, ways=8).pop(42) is None

    def test_capacity(self):
        assert RegionPrefetcher().filter_table.capacity == 64


class TestAccumulationTable:
    def test_record_access_sets_bits(self):
        pf = RegionPrefetcher()
        pf.accumulation_table.insert(5, make_record(offset=1))
        # block 3 of region 5: the region is accumulating, so the access
        # only records its bit
        assert pf.on_access(AccessInfo(pc=0x400, block=5 * 32 + 3)) == []
        assert pf.accumulation_table.lookup(5).footprint.offsets() == [1, 3]

    def test_explicit_evict_commits(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.insert(5, make_record(offset=1))
        table.lookup(5).footprint.set(2)
        assert table.invalidate(5).footprint.offsets() == [1, 2]
        assert table.lookup(5) is None

    def test_capacity_replacement_commits(self):
        table = SetAssociativeTable(sets=1, ways=2)
        assert table.insert(1, make_record()) is None
        assert table.insert(2, make_record()) is None
        assert table.insert(3, make_record())[0] == 1  # LRU displaced

    def test_evict_missing_is_noop(self):
        table = SetAssociativeTable(sets=1, ways=2)
        assert table.invalidate(9) is None
        assert len(table) == 0

    def test_items(self):
        table = SetAssociativeTable(sets=2, ways=2)
        table.insert(1, make_record())
        table.insert(2, make_record())
        assert {region for region, _rec in table.items()} == {1, 2}


class TestCommitExactlyOnce:
    def test_capacity_and_explicit_evictions_never_double_commit(self):
        commits = []
        table = SetAssociativeTable(sets=1, ways=2)
        for region in (1, 2, 3):
            footprint = Footprint(32)
            footprint.set(region)
            displaced = table.insert(
                region,
                RegionRecord(
                    trigger_pc=0x400,
                    trigger_offset=region,
                    trigger_block=region,
                    footprint=footprint,
                ),
            )
            if displaced is not None:
                commits.append(displaced[0])
        # inserting 3 into the full single set displaced exactly the LRU
        assert commits == [1]

        def invalidate(region):
            if table.invalidate(region) is not None:
                commits.append(region)

        invalidate(2)
        invalidate(3)
        assert commits == [1, 2, 3]
        # regions already committed are gone: re-evicting is a no-op
        invalidate(1)
        invalidate(2)
        assert commits == [1, 2, 3]

    def test_peek_does_not_perturb_replacement(self):
        table = SetAssociativeTable(sets=1, ways=2)
        table.insert(1, make_record(1))
        table.insert(2, make_record(2))
        # eviction-path inspection must not refresh LRU
        table.lookup(1, touch=False)
        assert table.insert(3, make_record(3))[0] == 1


@given(
    bits=st.integers(min_value=0, max_value=2**32 - 1),
    region=st.integers(min_value=0, max_value=2**36),
    offset=st.integers(min_value=0, max_value=31),
)
def test_requests_walk_the_set_bits(bits, region, offset):
    """``_requests`` lists the footprint's blocks but the trigger's,
    ascending, as the offsets-based list did."""
    footprint = Footprint(32, bits)
    expected = [region * 32 + o for o in footprint.offsets() if o != offset]
    assert RegionPrefetcher()._requests(region, offset, footprint) == expected
