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
:class:`RegionRecord` entries keyed by region number, and the entries
they give back carry the asymmetry: a filter entry that an ``insert``
displaces is traced as a :class:`~repro.obs.events.RegionDrop` and
trains nothing (graduation and end of residency remove it silently with
``pop``), while an accumulation entry commits its footprint whether an
``insert`` displaces it or ``invalidate`` ends its residency.  A
subclass supplies the history table and its ``_predict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.common.bitvec import Footprint
from repro.common.table import SetAssociativeTable
from repro.obs.events import HistoryEvict, RegionCommit, RegionDrop
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
    block, offset, footprint)``, returning the ``(key, pc, offset)`` of
    an entry it displaced (traced as a
    :class:`~repro.obs.events.HistoryEvict`) or None, and
    ``storage_bits`` — after calling this constructor, and implements
    :meth:`_predict`, which consults the history at a trigger access.
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
        self.filter_table = SetAssociativeTable(sets=filter_sets, ways=filter_ways)
        self.accumulation_table = SetAssociativeTable(
            sets=accumulation_sets, ways=accumulation_ways
        )
        self._region_shift = self.blocks_per_region.bit_length() - 1
        self._offset_mask = self.blocks_per_region - 1

    # -- training plumbing --------------------------------------------------
    def _commit_region(self, region: int, record: RegionRecord, cause: str) -> None:
        """Move a region's footprint into the history table.

        ``cause`` is ``"residency"`` when a recorded block left the cache
        and ``"capacity"`` when the accumulation table displaced the entry.
        """
        if self.sink.enabled:
            self.sink.emit(
                RegionCommit(
                    region=region,
                    pc=record.trigger_pc,
                    offset=record.trigger_offset,
                    trigger_block=record.trigger_block,
                    footprint=record.footprint.bits,
                    cause=cause,
                )
            )
        displaced = self.history.insert(
            record.trigger_pc,
            record.trigger_block,
            record.trigger_offset,
            record.footprint,
        )
        if displaced is not None and self.sink.enabled:
            key, pc, offset = displaced
            self.sink.emit(HistoryEvict(key=key, pc=pc, offset=offset))
        self.stats.add("commits")

    # -- the access path -----------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        pc, block = info
        region = block >> self._region_shift
        offset = block & self._offset_mask

        # Region already accumulating: just record the access.
        record = self.accumulation_table.lookup(region)
        if record is not None:
            record.footprint.bits |= 1 << offset
            return []

        # Region in the filter table: second access graduates it.
        filter_table = self.filter_table
        record = filter_table.lookup(region)
        if record is not None:
            if record.trigger_offset == offset:
                return []  # re-touching the trigger block: still one block
            filter_table.pop(region)
            record.footprint.bits |= 1 << offset
            displaced = self.accumulation_table.insert(region, record)
            if displaced is not None:
                self._commit_region(*displaced, "capacity")
            return []

        # Trigger access: start tracking and consult the history.
        displaced = filter_table.insert(
            region,
            RegionRecord(
                pc, offset, block, Footprint(self.blocks_per_region, 1 << offset)
            ),
        )
        if displaced is not None and self.sink.enabled:
            # filter-table capacity displaced a single-access region
            self.sink.emit(RegionDrop(region=displaced[0]))
        self.stats.add("triggers")
        return self._predict(pc, block, region, offset)

    def _predict(
        self, pc: int, block: int, region: int, offset: int
    ) -> List[int]:
        """Consult the history at a trigger access; return the prefetches."""
        raise NotImplementedError

    def _requests(
        self, region: int, offset: int, footprint: Footprint
    ) -> List[int]:
        """Every block of ``footprint`` in ``region`` except the trigger,
        ascending."""
        region_base_block = region << self._region_shift
        bits = footprint.bits & ~(1 << offset)
        requests = []
        while bits:
            low = bits & -bits
            requests.append(region_base_block + low.bit_length() - 1)
            bits ^= low
        return requests

    # -- residency tracking ---------------------------------------------------
    def on_eviction(self, block: int, was_used: bool) -> None:
        """A block left the cache: close its region's residency if tracked.

        Only an eviction of a block the region actually *recorded* ends
        the residency: an unrelated region block (never accessed, or a
        rejected prefetch) leaving the cache says nothing about the live
        blocks, and closing on it would commit truncated footprints.
        """
        region = block >> self._region_shift
        offset = block & self._offset_mask
        record = self.accumulation_table.lookup(region, touch=False)
        if record is not None:
            if record.footprint.bits >> offset & 1:
                self._commit_region(
                    region, self.accumulation_table.invalidate(region), "residency"
                )
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
