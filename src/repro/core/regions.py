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
auxiliary tables.  Each table is a plain
:class:`~repro.common.table.SetAssociativeTable` of
:class:`RegionRecord` entries keyed by region number.  Their ``on_evict``
callbacks carry the asymmetry: a filter entry displaced by capacity is
traced as a :class:`~repro.obs.events.RegionDrop` and trains nothing
(graduation and end of residency remove it silently with ``pop``),
while an accumulation entry commits its footprint whether capacity
displaces it or ``invalidate`` ends its residency.  A subclass supplies
the history table and its ``_predict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.common.bitvec import Footprint
from repro.common.table import SetAssociativeTable
from repro.obs.events import RegionCommit, RegionDrop
from repro.prefetchers.base import AccessInfo, Prefetcher


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
        # both map a region number to its RegionRecord
        self.filter_table = SetAssociativeTable(
            sets=filter_sets, ways=filter_ways, on_evict=self._filter_dropped
        )
        self.accumulation_table = SetAssociativeTable(
            sets=accumulation_sets,
            ways=accumulation_ways,
            on_evict=self._commit_region,
        )
        self._region_shift = self.blocks_per_region.bit_length() - 1
        # Why the next commit happened; on_eviction flips this to
        # "residency" around the explicit invalidate so traced RegionCommits
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
    def on_access(self, info: AccessInfo) -> List[int]:
        amap = self.address_map
        region = amap.region_of_block(info.block)
        offset = amap.offset_of_block(info.block)

        # Region already accumulating: just record the access.
        record = self.accumulation_table.lookup(region)
        if record is not None:
            record.footprint.set(offset)
            return []

        # Region in the filter table: second access graduates it.
        record = self.filter_table.lookup(region)
        if record is not None:
            if record.trigger_offset == offset:
                return []  # re-touching the trigger block: still one block
            self.filter_table.pop(region)
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
    ) -> List[int]:
        """Consult the history at a trigger access; return the prefetches."""
        raise NotImplementedError

    def _requests(
        self, region: int, offset: int, footprint: Footprint
    ) -> List[int]:
        """Every block of ``footprint`` in ``region`` except the trigger."""
        region_base_block = region << self._region_shift
        return [region_base_block + o for o in footprint.offsets() if o != offset]

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
        record = self.accumulation_table.lookup(region, touch=False)
        if record is not None:
            if record.footprint.test(offset):
                self._commit_cause = "residency"
                try:
                    # commits via the on_evict callback
                    self.accumulation_table.invalidate(region)
                finally:
                    self._commit_cause = "capacity"
            else:
                self.stats.add("residency_early_close")
            return
        record = self.filter_table.lookup(region, touch=False)
        if record is not None:
            if record.trigger_offset == offset:
                self.filter_table.pop(region)
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
