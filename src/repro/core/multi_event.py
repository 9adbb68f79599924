"""A generalised N-event spatial prefetcher (the motivation study).

Figures 2 and 3 of the paper study the design space before committing to
Bingo's two events:

* **Fig. 2** — for each *single* event heuristic, the prediction accuracy
  and *match probability* (fraction of trigger lookups that find the
  event in the history);
* **Fig. 3** — a TAGE-like prefetcher whose cascaded tables hold the *N*
  longest events, N swept from 1 (``PC+Address`` only) to 5 (all events).

:class:`MultiEventSpatialPrefetcher` implements both: give it any subset
of :data:`repro.core.events.LONGEST_TO_SHORTEST` and it trains/predicts
with naive cascaded tables (Fig. 1-(b)) behind the region front end of
:class:`repro.core.regions.RegionPrefetcher`, recording per-event match
statistics.  With ``kinds=LONGEST_TO_SHORTEST[:2]`` it is functionally a
dual-table Bingo — the unified-table :class:`repro.core.bingo.
BingoPrefetcher` must produce the same predictions, which the test suite
checks directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.common.addresses import AddressMap
from repro.core.events import MATCHED_STAT, EventKind, LONGEST_TO_SHORTEST
from repro.core.multi_history import CascadedHistoryTables
from repro.core.regions import RegionPrefetcher


class MultiEventSpatialPrefetcher(RegionPrefetcher):
    """PPH spatial prefetcher over an arbitrary event cascade."""

    name = "multi-event"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        kinds: Sequence[Union[EventKind, str]] = LONGEST_TO_SHORTEST,
        entries_per_table: int = 16 * 1024,
        ways: int = 16,
        filter_sets: int = 8,
        filter_ways: int = 8,
        accumulation_sets: int = 4,
        accumulation_ways: int = 8,
        measure_redundancy: bool = False,
    ) -> None:
        super().__init__(
            address_map,
            filter_sets=filter_sets,
            filter_ways=filter_ways,
            accumulation_sets=accumulation_sets,
            accumulation_ways=accumulation_ways,
        )
        # a wire spec carries each kind as its value ("pc+address");
        # EventKind maps a member to itself and refuses an unknown value
        self.kinds = tuple(EventKind(kind) for kind in kinds)
        self.history = CascadedHistoryTables(
            kinds=self.kinds,
            entries=entries_per_table,
            ways=ways,
            blocks_per_region=self.blocks_per_region,
        )
        self.measure_redundancy = measure_redundancy

    def _predict(
        self, pc: int, block: int, region: int, offset: int
    ) -> List[int]:
        if self.measure_redundancy:
            self._record_redundancy(pc, block, offset)
        match = self.history.lookup(pc, block, offset)
        if match is None:
            self.stats.add("lookup_misses")
            return []
        self.stats.add("lookup_hits")
        self.stats.add(MATCHED_STAT[match.matched])
        return self._requests(region, offset, match.footprint)

    def _record_redundancy(self, pc: int, block: int, offset: int) -> None:
        """Fig. 4 instrumentation: do long & short tables agree?

        A lookup is *redundant* when the longest and shortest tables both
        predict and predict the same footprint — metadata the unified
        design stores once.
        """
        if len(self.kinds) < 2:
            return
        predictions = self.history.lookup_all(pc, block, offset)
        longest = predictions[self.kinds[0]]
        shortest = predictions[self.kinds[-1]]
        if longest is None and shortest is None:
            return
        self.stats.add("redundancy_lookups")
        if (
            longest is not None
            and shortest is not None
            and longest.footprint == shortest.footprint
        ):
            self.stats.add("redundant_lookups")

    def match_probability(self) -> float:
        """Fraction of trigger lookups that found any event (Fig. 2)."""
        return self.stats.ratio("lookup_hits", "triggers")
