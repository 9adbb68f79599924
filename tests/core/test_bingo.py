"""The Bingo prefetcher: trigger behaviour, training, dual-event priority."""

import tracemalloc
from typing import List

import pytest

from repro.common.addresses import AddressMap
from repro.core.bingo import BingoPrefetcher
from repro.prefetchers.base import AccessInfo


def access(pf, block, pc=0x400, hit=False) -> List[int]:
    info = AccessInfo(pc=pc, address=block * 64, block=block, hit=hit, time=0.0)
    return sorted(req.block for req in pf.on_access(info))


def visit_region(pf, region, offsets, pc=0x400) -> None:
    """Touch the given offsets of a region, then end its residency."""
    base = region * 32
    for offset in offsets:
        access(pf, base + offset, pc=pc)
    pf.on_eviction(base + offsets[0], was_used=True)


class TestColdBehaviour:
    def test_trigger_without_history_prefetches_nothing(self):
        pf = BingoPrefetcher()
        assert access(pf, 0) == []
        assert pf.stats.get("triggers") == 1
        assert pf.stats.get("lookup_misses") == 1

    def test_accumulation_accesses_prefetch_nothing(self):
        pf = BingoPrefetcher()
        for block in range(4):
            assert access(pf, block) == []

    def test_retouching_trigger_block_stays_in_filter(self):
        pf = BingoPrefetcher()
        access(pf, 0)
        access(pf, 0)
        assert len(pf.filter_table) == 1
        assert len(pf.accumulation_table) == 0

    def test_second_distinct_block_graduates(self):
        pf = BingoPrefetcher()
        access(pf, 0)
        access(pf, 1)
        assert len(pf.filter_table) == 0
        assert len(pf.accumulation_table) == 1


class TestTrainingAndPrediction:
    def test_pc_offset_generalises_to_new_region(self):
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[0, 3, 7])
        predicted = access(pf, 1 * 32 + 0)  # same pc, same offset, new region
        assert predicted == [32 + 3, 32 + 7]
        assert pf.stats.get("matched_pc_offset") == 1

    def test_trigger_block_excluded_from_prefetches(self):
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[5, 6])
        predicted = access(pf, 32 + 5)
        assert 32 + 5 not in predicted

    def test_pc_address_match_on_region_revisit(self):
        """Revisiting the same region matches the long event exactly."""
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[0, 4])
        access(pf, 0)  # re-trigger the same region
        assert pf.stats.get("matched_pc_address") == 1

    def test_long_event_disambiguates_layout_classes(self):
        """Two regions share (pc, offset 0) but differ in footprint; a
        revisit of region A must get A's exact footprint, not a blend —
        the core claim of Section III."""
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[0, 4, 5])
        visit_region(pf, region=1, offsets=[0, 9])
        predicted = access(pf, 0)  # revisit region 0, trigger block 0
        assert predicted == [4, 5]

    def test_short_event_vote_blends_classes(self):
        """A brand-new region with the same (pc, offset) gets the 20 %
        vote across both stored footprints."""
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[0, 4, 5])
        visit_region(pf, region=1, offsets=[0, 9])
        base = 2 * 32
        predicted = access(pf, base)
        assert predicted == [base + 4, base + 5, base + 9]

    def test_different_pc_does_not_match(self):
        pf = BingoPrefetcher()
        visit_region(pf, region=0, offsets=[0, 3], pc=0x100)
        assert access(pf, 32, pc=0x200) == []


class TestResidency:
    def test_eviction_closes_and_commits(self):
        pf = BingoPrefetcher()
        access(pf, 0)
        access(pf, 1)
        pf.on_eviction(0, was_used=True)
        assert len(pf.accumulation_table) == 0
        assert pf.stats.get("commits") == 1
        assert len(pf.history) == 1

    def test_eviction_of_filter_only_region_trains_nothing(self):
        pf = BingoPrefetcher()
        access(pf, 0)  # single access: stays in filter
        pf.on_eviction(0, was_used=True)
        assert len(pf.history) == 0
        assert len(pf.filter_table) == 0

    def test_eviction_of_untracked_region_is_noop(self):
        pf = BingoPrefetcher()
        pf.on_eviction(12345, was_used=False)
        assert pf.stats.get("commits") == 0

    def test_non_footprint_eviction_keeps_residency_open(self):
        """Regression: an eviction of a region block the region never
        recorded used to close the residency and commit a truncated
        footprint."""
        pf = BingoPrefetcher()
        access(pf, 0)
        access(pf, 3)
        pf.on_eviction(5, was_used=False)  # offset 5 was never accessed
        assert pf.stats.get("commits") == 0
        assert pf.stats.get("residency_early_close") == 1
        assert len(pf.accumulation_table) == 1
        access(pf, 7)  # the region keeps accumulating
        pf.on_eviction(3, was_used=True)  # a footprint block: now it closes
        assert pf.stats.get("commits") == 1
        assert len(pf.accumulation_table) == 0
        # the committed footprint carries all three accesses
        assert access(pf, 32) == [32 + 3, 32 + 7]

    def test_filter_entry_survives_foreign_eviction(self):
        pf = BingoPrefetcher()
        access(pf, 0)  # trigger only: stays in the filter
        pf.on_eviction(5, was_used=False)  # some other block of the region
        assert len(pf.filter_table) == 1
        assert pf.stats.get("residency_early_close") == 1
        pf.on_eviction(0, was_used=False)  # the trigger block itself leaves
        assert len(pf.filter_table) == 0


class TestConfiguration:
    def test_storage_roughly_paper_sized(self):
        pf = BingoPrefetcher()
        assert 110 <= pf.storage_bits / 8 / 1024 <= 135

    def test_region_geometry_follows_address_map(self):
        amap = AddressMap(region_size=4096)
        pf = BingoPrefetcher(address_map=amap)
        assert pf.blocks_per_region == 64

    def test_four_cores_build_in_under_256_kb(self):
        """Table sets are allocated on first fill, not at construction:
        an engine builds one Bingo per core before the first access."""
        tracemalloc.start()
        try:
            prefetchers = [BingoPrefetcher() for _ in range(4)]
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(prefetchers) == 4
        assert allocated < 256 * 1024

    def test_most_recent_policy_plumbs_through(self):
        pf = BingoPrefetcher(short_match_policy="most_recent")
        visit_region(pf, region=0, offsets=[0, 4])
        visit_region(pf, region=1, offsets=[0, 9])
        base = 2 * 32
        assert access(pf, base) == [base + 9]
