"""The naive cascaded TAGE-like history tables (Fig. 1-(b)).

Before the unified table, the obvious multi-event design keeps one history
table *per event* and inserts every footprint into all of them.  This
module implements that design faithfully because the paper needs it twice:

* the **Fig. 4 redundancy study** measures how often the long- and
  short-event tables offer the same prediction (26 %–93 % of lookups);
* the **multi-event motivation prefetcher** (Figs. 2 and 3) sweeps the
  number of cascaded tables from one to five.

Entries in tables whose event does not pin the trigger offset (the bare
``PC`` table) remember the recorded trigger offset so predictions can be
re-anchored at use (see :meth:`repro.common.bitvec.Footprint.shifted`).

The ``PC+Offset`` key is memoised per ``(pc, offset)`` and the
``PC+Address`` key's first round per ``pc``, as in
:class:`repro.core.history.BingoHistoryTable`; the other kinds hash with
:func:`repro.core.events.event_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.common.bitvec import Footprint
from repro.common.hashing import combine_from
from repro.common.table import SetAssociativeTable
from repro.core.events import (
    EventKind,
    LONGEST_TO_SHORTEST,
    event_key,
    pc_address_head,
)


@dataclass
class _CascadePayload:
    footprint: Footprint
    trigger_offset: int


class CascadeMatch(NamedTuple):
    """A prediction from one of the cascaded tables."""

    footprint: Footprint  # already re-anchored to the new trigger
    matched: EventKind


class CascadedHistoryTables:
    """One set-associative history table per event, longest first.

    Parameters
    ----------
    kinds:
        The events to maintain tables for, in lookup priority order.
        Defaults to all five of Section III, longest to shortest.
    entries, ways:
        Geometry of *each* table — the storage cost the unified design
        avoids multiplies with ``len(kinds)``.
    """

    def __init__(
        self,
        kinds: Sequence[EventKind] = LONGEST_TO_SHORTEST,
        entries: int = 16 * 1024,
        ways: int = 16,
        blocks_per_region: int = 32,
    ) -> None:
        if not kinds:
            raise ValueError("at least one event kind is required")
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate event kinds")
        self.kinds: Tuple[EventKind, ...] = tuple(kinds)
        self.entries = entries
        self.ways = ways
        self.blocks_per_region = blocks_per_region
        if ways < 1:
            raise ValueError(f"ways must be at least 1, got {ways}")
        if entries < 1:
            raise ValueError(f"entries must be at least 1, got {entries}")
        sets = entries // ways
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"entries/ways must give a power-of-two sets, got {sets}")
        self._tables: Dict[EventKind, SetAssociativeTable[_CascadePayload]] = {
            kind: SetAssociativeTable(sets=sets, ways=ways)
            for kind in self.kinds
        }
        # (pc, offset) -> PC+Offset key, and pc -> the PC+Address key's
        # first round; both are bounded by the program's load sites
        self._short_memo: dict = {}
        self._head_memo: dict = {}

    def _key(self, kind: EventKind, pc: int, block: int, offset: int) -> int:
        """``event_key(kind, pc, block, offset)``, memoised for the two
        PC-led kinds."""
        if kind is EventKind.PC_OFFSET:
            key = self._short_memo.get((pc, offset))
            if key is None:
                key = self._short_memo[pc, offset] = event_key(kind, pc, 0, offset)
            return key
        if kind is EventKind.PC_ADDRESS:
            head = self._head_memo.get(pc)
            if head is None:
                head = self._head_memo[pc] = pc_address_head(pc)
            return combine_from(head, block)
        return event_key(kind, pc, block, offset)

    # -- training ----------------------------------------------------------
    def insert(self, pc: int, block: int, offset: int, footprint: Footprint) -> None:
        """Insert the footprint into *every* table (the naive design)."""
        if footprint.width != self.blocks_per_region:
            raise ValueError(
                f"footprint width {footprint.width} != {self.blocks_per_region}"
            )
        for kind in self.kinds:
            self._tables[kind].insert(
                self._key(kind, pc, block, offset),
                _CascadePayload(footprint.copy(), offset),
            )

    # -- prediction ----------------------------------------------------------
    def _match(
        self, kind: EventKind, pc: int, block: int, offset: int
    ) -> Optional[CascadeMatch]:
        payload = self._tables[kind].lookup(self._key(kind, pc, block, offset))
        if payload is None:
            return None
        footprint = payload.footprint
        if not kind.includes_offset and payload.trigger_offset != offset:
            footprint = footprint.shifted(offset - payload.trigger_offset)
        return CascadeMatch(footprint.copy(), kind)

    def lookup(self, pc: int, block: int, offset: int) -> Optional[CascadeMatch]:
        """TAGE-style cascade: first matching table, longest event first."""
        for kind in self.kinds:
            match = self._match(kind, pc, block, offset)
            if match is not None:
                return match
        return None

    def lookup_all(
        self, pc: int, block: int, offset: int
    ) -> Dict[EventKind, Optional[CascadeMatch]]:
        """Every table's prediction for one trigger (Fig. 4 instrumentation)."""
        return {
            kind: self._match(kind, pc, block, offset) for kind in self.kinds
        }

    # -- reporting -------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Total cost across all tables — what the unified design collapses."""
        # Same per-entry model as the unified table, plus the stored
        # trigger offset for offset-free events.
        offset_bits = max(1, (self.blocks_per_region - 1).bit_length())
        per_entry = self.blocks_per_region + 23 + 4 + 1
        total = 0
        for kind in self.kinds:
            extra = 0 if kind.includes_offset else offset_bits
            total += self.entries * (per_entry + extra)
        return total

    def table_sizes(self) -> Dict[EventKind, int]:
        return {kind: len(table) for kind, table in self._tables.items()}
