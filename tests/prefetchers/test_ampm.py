"""Access Map Pattern Matching: stride detection over zone bitmaps."""

import pytest

from repro.prefetchers.ampm import AmpmPrefetcher

from tests.prefetchers.helpers import feed


class TestStrideDetection:
    def test_forward_unit_stride(self):
        pf = AmpmPrefetcher()
        prefetched = feed(pf, [0, 1, 2])
        # t=2: t-1 and t-2 accessed -> prefetch t+1 (and more strides).
        assert 3 in prefetched

    def test_forward_stride_2(self):
        pf = AmpmPrefetcher()
        prefetched = feed(pf, [0, 2, 4])
        assert 6 in prefetched

    def test_backward_stride(self):
        pf = AmpmPrefetcher()
        prefetched = feed(pf, [10, 9, 8])
        assert 7 in prefetched

    def test_no_pattern_no_prefetch(self):
        pf = AmpmPrefetcher()
        assert feed(pf, [0]) == []

    def test_does_not_reprefetch_marked_blocks(self):
        pf = AmpmPrefetcher()
        first = feed(pf, [0, 1, 2])
        second = feed(pf, [3])
        assert not (set(first) & set(second))

    def test_stays_within_zone(self):
        pf = AmpmPrefetcher()
        prefetched = feed(pf, [61, 62, 63])  # zone = 64 blocks
        assert all(block < 64 for block in prefetched)

    def test_prefetch_cap_respected(self):
        pf = AmpmPrefetcher(max_prefetches_per_access=2)
        # A dense map gives many candidate strides.
        prefetched = feed(pf, list(range(16)))
        per_access = len(feed(pf, [16]))
        assert per_access <= 2


class TestZoneManagement:
    def test_zone_lru_eviction(self):
        pf = AmpmPrefetcher(zones=2)
        feed(pf, [0])       # zone 0
        feed(pf, [64])      # zone 1
        feed(pf, [128])     # zone 2 evicts zone 0
        assert len(pf._maps) == 2
        assert pf._maps.lookup(0, touch=False) is None

    def test_rejects_bad_zone_count(self):
        with pytest.raises(ValueError):
            AmpmPrefetcher(zones=0)

    def test_storage_covers_llc_by_default(self):
        pf = AmpmPrefetcher()
        # 2048 zones x 4 KB = 8 MB of coverage (Section V).
        assert pf.zones * 4096 == 8 * 1024 * 1024
