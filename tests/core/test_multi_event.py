"""The N-event motivation prefetcher and its agreement with Bingo."""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bingo import BingoPrefetcher
from repro.core.events import EventKind, LONGEST_TO_SHORTEST
from repro.core.multi_event import MultiEventSpatialPrefetcher
from repro.prefetchers.base import AccessInfo


def access(pf, block, pc=0x400) -> List[int]:
    return sorted(pf.on_access(AccessInfo(pc=pc, block=block)))


def visit_region(pf, region, offsets, pc=0x400) -> None:
    base = region * 32
    for offset in offsets:
        access(pf, base + offset, pc=pc)
    pf.on_eviction(base + offsets[0], was_used=True)


class TestSingleEventVariants:
    def test_pc_address_only_covers_exact_revisits(self):
        pf = MultiEventSpatialPrefetcher(kinds=(EventKind.PC_ADDRESS,))
        visit_region(pf, region=0, offsets=[0, 4])
        assert access(pf, 32) == []  # new region: no match
        assert access(pf, 0) == [4]  # exact revisit: match

    def test_offset_only_matches_everything(self):
        pf = MultiEventSpatialPrefetcher(kinds=(EventKind.OFFSET,))
        visit_region(pf, region=0, offsets=[0, 4], pc=0x100)
        # Different pc, different region - offset alone still matches.
        assert access(pf, 32, pc=0x999) == [32 + 4]

    def test_pc_event_reanchors(self):
        pf = MultiEventSpatialPrefetcher(kinds=(EventKind.PC,))
        visit_region(pf, region=0, offsets=[4, 5])
        predicted = access(pf, 32 + 10)  # same pc, offset 10
        assert predicted == [32 + 11]  # pattern shifted by +6


class TestCascadePriority:
    def test_match_statistics_identify_the_winning_event(self):
        pf = MultiEventSpatialPrefetcher(kinds=LONGEST_TO_SHORTEST)
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 0)  # exact revisit
        assert pf.stats.get("matched_pc_address") == 1
        access(pf, 2 * 32)  # same pc+offset, new region
        assert pf.stats.get("matched_pc_offset") == 1

    def test_match_probability(self):
        pf = MultiEventSpatialPrefetcher(kinds=(EventKind.PC_OFFSET,))
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 1 * 32)  # hit
        access(pf, 2 * 32 + 9)  # miss (offset 9 never trained)
        assert pf.match_probability() == pytest.approx(1 / 3)


class TestRedundancyInstrumentation:
    def test_redundant_when_tables_agree(self):
        pf = MultiEventSpatialPrefetcher(
            kinds=(EventKind.PC_ADDRESS, EventKind.PC_OFFSET),
            measure_redundancy=True,
        )
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 0)  # revisit: both tables hold the same footprint
        assert pf.stats.get("redundancy_lookups") == 1
        assert pf.stats.get("redundant_lookups") == 1

    def test_not_redundant_when_only_short_matches(self):
        pf = MultiEventSpatialPrefetcher(
            kinds=(EventKind.PC_ADDRESS, EventKind.PC_OFFSET),
            measure_redundancy=True,
        )
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 1 * 32)  # new region: long misses, short hits
        assert pf.stats.get("redundancy_lookups") == 1
        assert pf.stats.get("redundant_lookups") == 0

    def test_single_event_cascade_records_nothing(self):
        pf = MultiEventSpatialPrefetcher(
            kinds=(EventKind.PC_OFFSET,), measure_redundancy=True
        )
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 1 * 32)
        assert pf.stats.get("redundancy_lookups") == 0


# -- the paper's equivalence claim -------------------------------------------
# A dual-event cascade (Fig. 1-(b)) and the unified table (Fig. 1-(c)) make
# the same predictions whenever the short event has a single candidate; the
# unified design only *adds* the multi-candidate vote.

region_visits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # region
        st.lists(st.integers(min_value=0, max_value=31), min_size=2,
                 max_size=6, unique=True),  # offsets
        st.sampled_from([0x100, 0x200, 0x300]),  # trigger pc
    ),
    min_size=1,
    max_size=12,
)


@settings(deadline=None, max_examples=50)
@given(visits=region_visits, probe_region=st.integers(min_value=16, max_value=20),
       probe_offset=st.integers(min_value=0, max_value=31),
       probe_pc=st.sampled_from([0x100, 0x200, 0x300]))
def test_unified_table_agrees_with_dual_cascade(
    visits, probe_region, probe_offset, probe_pc
):
    bingo = BingoPrefetcher(history_entries=1024, history_ways=16)
    cascade = MultiEventSpatialPrefetcher(
        kinds=(EventKind.PC_ADDRESS, EventKind.PC_OFFSET),
        entries_per_table=1024,
        ways=16,
    )
    for region, offsets, pc in visits:
        visit_region(bingo, region, offsets, pc=pc)
        visit_region(cascade, region, offsets, pc=pc)

    probe_block = probe_region * 32 + probe_offset
    bingo_match = bingo.history.lookup(probe_pc, probe_block, probe_offset)
    cascade_match = cascade.history.lookup(probe_pc, probe_block, probe_offset)

    # Existence agrees (tables are large enough that nothing was evicted).
    assert (bingo_match is None) == (cascade_match is None)
    if bingo_match is not None and bingo_match.num_matches == 1:
        assert bingo_match.footprint == cascade_match.footprint
        assert bingo_match.matched == cascade_match.matched


class TestResidencyRule:
    def test_non_footprint_eviction_keeps_residency_open(self):
        """Same regression as Bingo's: only an eviction of a *recorded*
        block ends the residency."""
        pf = MultiEventSpatialPrefetcher()
        access(pf, 0)
        access(pf, 3)
        pf.on_eviction(5, was_used=False)  # offset 5 was never accessed
        assert pf.stats.get("commits") == 0
        assert pf.stats.get("residency_early_close") == 1
        assert len(pf.accumulation_table) == 1
        pf.on_eviction(3, was_used=True)
        assert pf.stats.get("commits") == 1
        assert len(pf.accumulation_table) == 0

    def test_filter_entry_survives_foreign_eviction(self):
        pf = MultiEventSpatialPrefetcher()
        access(pf, 0)
        pf.on_eviction(5, was_used=False)
        assert len(pf.filter_table) == 1
        pf.on_eviction(0, was_used=False)
        assert len(pf.filter_table) == 0
