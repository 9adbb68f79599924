"""Region-residency tracking: the filter and accumulation tables.

Section IV: "Bingo uses a small auxiliary storage to record spatial
patterns while the processor accesses spatial regions."  Following the
public Bingo implementation, that storage is split in two:

* the **filter table** holds regions that have seen exactly *one* access
  (the trigger).  Regions touched once and abandoned never pollute the
  history — a footprint with a single bit predicts nothing useful;
* the **accumulation table** holds regions with two or more accesses and
  accumulates the footprint bit-vector.

A region graduates from filter to accumulation on its second (distinct)
access, and leaves the accumulation table — committing its footprint to
the history table — either when a block of the region is evicted from the
cache (end of residency, Section IV) or when the accumulation table
itself needs the entry back (capacity eviction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.common.bitvec import Footprint
from repro.common.table import SetAssociativeTable


@dataclass
class RegionRecord:
    """Per-region training state while the region is live.

    ``trigger_pc``/``trigger_offset``/``trigger_block`` identify the
    trigger access — they become the events the footprint is filed under.
    """

    trigger_pc: int
    trigger_offset: int
    trigger_block: int
    footprint: Footprint


CommitCallback = Callable[[int, RegionRecord], None]


class FilterTable:
    """Regions with exactly one access so far (trigger only).

    ``on_drop(region, record)`` fires only on *capacity* replacement —
    explicit :meth:`remove` (graduation, end of residency) is silent,
    because a single-access region trains nothing.  The observability
    layer uses the callback to trace forgotten triggers so the unbounded
    reference models of :mod:`repro.check` can stay in sync.
    """

    def __init__(
        self,
        sets: int = 8,
        ways: int = 8,
        on_drop: Optional[CommitCallback] = None,
    ) -> None:
        self._table: SetAssociativeTable[RegionRecord] = SetAssociativeTable(
            sets=sets, ways=ways, on_evict=on_drop
        )

    def lookup(self, region: int) -> Optional[RegionRecord]:
        return self._table.lookup(region)

    def peek(self, region: int) -> Optional[RegionRecord]:
        """Lookup without touching recency (eviction-path inspection)."""
        return self._table.lookup(region, touch=False)

    def insert(self, region: int, record: RegionRecord) -> None:
        self._table.insert(region, record)

    def remove(self, region: int) -> Optional[RegionRecord]:
        """Remove silently (single-access regions train nothing)."""
        return self._table.pop(region)

    def items(self) -> List[Tuple[int, RegionRecord]]:
        return self._table.items()

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def capacity(self) -> int:
        return self._table.capacity


class AccumulationTable:
    """Regions actively accumulating a footprint (two or more accesses).

    ``on_commit(region, record)`` fires whenever a region's residency ends
    — on explicit :meth:`evict` (cache told us a block left) and on
    capacity replacement inside the table — so the owner can transfer the
    footprint to the history table, exactly as Section IV describes.
    """

    def __init__(
        self, on_commit: CommitCallback, sets: int = 16, ways: int = 8
    ) -> None:
        self._on_commit = on_commit
        self._table: SetAssociativeTable[RegionRecord] = SetAssociativeTable(
            sets=sets,
            ways=ways,
            on_evict=self._handle_evict,
        )

    def _handle_evict(self, region: int, record: RegionRecord) -> None:
        self._on_commit(region, record)

    def lookup(self, region: int) -> Optional[RegionRecord]:
        return self._table.lookup(region)

    def peek(self, region: int) -> Optional[RegionRecord]:
        """Lookup without touching recency (eviction-path inspection)."""
        return self._table.lookup(region, touch=False)

    def insert(self, region: int, record: RegionRecord) -> None:
        self._table.insert(region, record)

    def record_access(self, region: int, offset: int) -> bool:
        """Mark block ``offset`` used; True if the region is tracked here."""
        record = self._table.lookup(region)
        if record is None:
            return False
        record.footprint.set(offset)
        return True

    def evict(self, region: int) -> Optional[RegionRecord]:
        """End the region's residency; commits via the callback."""
        return self._table.invalidate(region)

    def items(self) -> List[Tuple[int, RegionRecord]]:
        return self._table.items()

    def clear(self) -> None:
        """Drop all tracked regions *without* committing them."""
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def capacity(self) -> int:
        return self._table.capacity
