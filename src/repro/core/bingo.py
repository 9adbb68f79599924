"""The Bingo spatial data prefetcher (Section IV).

Putting the pieces together:

1. A *trigger access* (first access to an untracked region) allocates a
   filter-table entry and consults the unified history table — first with
   ``PC+Address``, then with ``PC+Offset`` in the same set.  A match
   prefetches every block of the predicted footprint (minus the trigger).
2. Subsequent accesses to the region accumulate its footprint.
3. When a block of the region leaves the LLC (end of residency) — or the
   accumulation table recycles the entry — the footprint is committed to
   the history table under its trigger's events.

Steps 1–3's region tracking is the front end Bingo shares with SMS
(:class:`repro.core.regions.RegionPrefetcher`); this module adds the
unified history table and its voted prediction.

Configuration defaults follow Section V/VI-A: 2 KB regions (32 blocks of
64 B), a 16 K-entry 16-way history table (~119 KB), and the 20 % voting
threshold for multi-match short-event lookups.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.core.events import MATCHED_STAT
from repro.core.history import BingoHistoryTable
from repro.core.regions import RegionPrefetcher
from repro.obs.events import VoteDecision


class BingoPrefetcher(RegionPrefetcher):
    """Dual-event PPH spatial prefetcher with a unified history table."""

    name = "bingo"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        history_entries: int = 16 * 1024,
        history_ways: int = 16,
        vote_threshold: float = 0.20,
        short_match_policy: str = "vote",
        filter_sets: int = 8,
        filter_ways: int = 8,
        accumulation_sets: int = 4,
        accumulation_ways: int = 8,
    ) -> None:
        super().__init__(
            address_map,
            filter_sets=filter_sets,
            filter_ways=filter_ways,
            accumulation_sets=accumulation_sets,
            accumulation_ways=accumulation_ways,
        )
        self.history = BingoHistoryTable(
            entries=history_entries,
            ways=history_ways,
            blocks_per_region=self.blocks_per_region,
            vote_threshold=vote_threshold,
            short_match_policy=short_match_policy,
        )

    def _predict(
        self, pc: int, block: int, region: int, offset: int
    ) -> List[int]:
        match = self.history.lookup(pc, block, offset)
        sink = self.sink
        if match is None:
            self.stats.add("lookup_misses")
            if sink.enabled:
                sink.emit(
                    VoteDecision(
                        pc=pc,
                        block=block,
                        region=region,
                        offset=offset,
                        matched="none",
                        num_matches=0,
                        threshold=self.history.vote_threshold,
                        predicted=0,
                    )
                )
            return []
        self.stats.add("lookup_hits")
        self.stats.add(MATCHED_STAT[match.matched])
        requests = self._requests(region, offset, match.footprint)
        if sink.enabled:
            sink.emit(
                VoteDecision(
                    pc=pc,
                    block=block,
                    region=region,
                    offset=offset,
                    matched=match.matched.name.lower(),
                    num_matches=match.num_matches,
                    threshold=self.history.vote_threshold,
                    predicted=len(requests),
                )
            )
        return requests
