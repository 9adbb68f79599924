"""The region front end of the per-page-history prefetchers.

Section IV: "Bingo uses a small auxiliary storage to record spatial
patterns while the processor accesses spatial regions."  SMS, SFP and
the multi-event motivation prefetcher record footprints the same way;
they differ only in the history table behind it.  Following the public
Bingo implementation, the auxiliary storage is split in two:

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

:class:`RegionPrefetcher` is that front end, written once: the trigger
→ filter → accumulate access path, the residency-closing eviction path,
the commit into ``self.history`` and the storage model of the two
auxiliary tables.  A subclass supplies the history table and its
``_predict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.common.addresses import AddressMap
from repro.common.bitvec import Footprint
from repro.common.table import SetAssociativeTable
from repro.obs.events import RegionCommit, RegionDrop
from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


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

    def __len__(self) -> int:
        return len(self._table)

    @property
    def capacity(self) -> int:
        return self._table.capacity


class RegionPrefetcher(Prefetcher):
    """A per-page-history prefetcher: region front end over a history.

    A subclass builds ``self.history`` — anything with ``insert(pc,
    block, offset, footprint)`` and ``storage_bits`` — after calling
    this constructor, and implements :meth:`_predict`, which consults
    the history at a trigger access.
    """

    #: modelled bits per filter/accumulation entry beyond the footprint:
    #: region tag + trigger PC + trigger offset + valid/recency.
    _AUX_ENTRY_OVERHEAD_BITS = 48

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        filter_sets: int = 8,
        filter_ways: int = 8,
        accumulation_sets: int = 4,
        accumulation_ways: int = 8,
    ) -> None:
        super().__init__(address_map)
        self.blocks_per_region = self.address_map.blocks_per_region
        self.filter_table = FilterTable(
            sets=filter_sets, ways=filter_ways, on_drop=self._filter_dropped
        )
        self.accumulation_table = AccumulationTable(
            on_commit=self._commit_region,
            sets=accumulation_sets,
            ways=accumulation_ways,
        )
        self._region_shift = self.blocks_per_region.bit_length() - 1
        # Why the next commit happened; on_eviction flips this to
        # "residency" around the explicit evict so traced RegionCommits
        # carry their cause (capacity commits come from table pressure).
        self._commit_cause = "capacity"

    # -- training plumbing --------------------------------------------------
    def _commit_region(self, region: int, record: RegionRecord) -> None:
        """End of residency: move the footprint into the history table."""
        if self.sink.enabled:
            self.sink.emit(
                RegionCommit(
                    region=region,
                    pc=record.trigger_pc,
                    offset=record.trigger_offset,
                    trigger_block=record.trigger_block,
                    footprint=record.footprint.bits,
                    cause=self._commit_cause,
                )
            )
        self.history.insert(
            record.trigger_pc,
            record.trigger_block,
            record.trigger_offset,
            record.footprint,
        )
        self.stats.add("commits")

    def _filter_dropped(self, region: int, record: RegionRecord) -> None:
        """Filter-table capacity displaced a single-access region."""
        if self.sink.enabled:
            self.sink.emit(RegionDrop(region=region))

    # -- the access path -----------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[PrefetchRequest]:
        amap = self.address_map
        region = amap.region_of_block(info.block)
        offset = amap.offset_of_block(info.block)

        # Region already accumulating: just record the access.
        if self.accumulation_table.record_access(region, offset):
            return []

        # Region in the filter table: second access graduates it.
        record = self.filter_table.lookup(region)
        if record is not None:
            if record.trigger_offset == offset:
                return []  # re-touching the trigger block: still one block
            self.filter_table.remove(region)
            record.footprint.set(offset)
            self.accumulation_table.insert(region, record)
            return []

        # Trigger access: start tracking and consult the history.
        footprint = Footprint(self.blocks_per_region)
        footprint.set(offset)
        self.filter_table.insert(
            region,
            RegionRecord(
                trigger_pc=info.pc,
                trigger_offset=offset,
                trigger_block=info.block,
                footprint=footprint,
            ),
        )
        self.stats.add("triggers")
        return self._predict(info.pc, info.block, region, offset)

    def _predict(
        self, pc: int, block: int, region: int, offset: int
    ) -> List[PrefetchRequest]:
        """Consult the history at a trigger access; return the prefetches."""
        raise NotImplementedError

    def _requests(
        self, region: int, offset: int, footprint: Footprint
    ) -> List[PrefetchRequest]:
        """Every block of ``footprint`` in ``region`` except the trigger."""
        region_base_block = region << self._region_shift
        return [
            PrefetchRequest(block=region_base_block + o)
            for o in footprint.offsets()
            if o != offset
        ]

    # -- residency tracking ---------------------------------------------------
    def on_eviction(self, block: int, was_used: bool) -> None:
        """A block left the cache: close its region's residency if tracked.

        Only an eviction of a block the region actually *recorded* ends
        the residency: an unrelated region block (never accessed, or a
        rejected prefetch) leaving the cache says nothing about the live
        blocks, and closing on it would commit truncated footprints.
        """
        region = self.address_map.region_of_block(block)
        offset = self.address_map.offset_of_block(block)
        record = self.accumulation_table.peek(region)
        if record is not None:
            if record.footprint.test(offset):
                self._commit_cause = "residency"
                try:
                    self.accumulation_table.evict(region)  # commits via callback
                finally:
                    self._commit_cause = "capacity"
            else:
                self.stats.add("residency_early_close")
            return
        record = self.filter_table.peek(region)
        if record is not None:
            if record.trigger_offset == offset:
                self.filter_table.remove(region)
            else:
                self.stats.add("residency_early_close")

    # -- reporting ----------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        aux_entries = self.filter_table.capacity + self.accumulation_table.capacity
        aux_bits = aux_entries * (
            self.blocks_per_region + self._AUX_ENTRY_OVERHEAD_BITS
        )
        return self.history.storage_bits + aux_bits
