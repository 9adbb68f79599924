"""Bingo: the paper's primary contribution.

* :mod:`repro.core.events` — the event taxonomy of Section III
  (``PC+Address`` … ``Offset``) and key extraction from trigger accesses.
* :mod:`repro.core.regions` — the region front end:
  :class:`RegionPrefetcher`, the one access/eviction path that Bingo,
  SMS, SFP and the multi-event prefetcher share in front of their
  history tables, recording footprints during a region's residency
  (Section IV) in a filter table and an accumulation table, each a
  plain :class:`~repro.common.table.SetAssociativeTable` of
  :class:`RegionRecord` entries.
* :mod:`repro.core.history` — the storage-efficient *unified* history
  table: indexed by the short event, tagged by the long event (Fig. 5).
* :mod:`repro.core.multi_history` — the naive cascaded TAGE-like tables
  Bingo improves upon (Fig. 1-(b), used for the Fig. 4 redundancy study).
* :mod:`repro.core.bingo` — the Bingo prefetcher itself: the front end
  over the unified history table.
* :mod:`repro.core.multi_event` — a generalised N-event spatial prefetcher
  used for the motivation figures (Figs. 2 and 3): the front end over
  the cascaded tables.  SMS and SFP are its one-event cases.
"""

from repro.core.bingo import BingoPrefetcher
from repro.core.events import Event, EventKind, LONGEST_TO_SHORTEST
from repro.core.history import BingoHistoryTable, HistoryMatch
from repro.core.multi_event import MultiEventSpatialPrefetcher
from repro.core.multi_history import CascadedHistoryTables
from repro.core.regions import RegionRecord

__all__ = [
    "BingoPrefetcher",
    "Event",
    "EventKind",
    "LONGEST_TO_SHORTEST",
    "BingoHistoryTable",
    "HistoryMatch",
    "MultiEventSpatialPrefetcher",
    "CascadedHistoryTables",
    "RegionRecord",
]
