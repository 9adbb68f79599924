"""Bingo's unified history table (Fig. 5).

This is the paper's storage contribution.  A naive dual-event design keeps
two tables — one keyed by ``PC+Address``, one by ``PC+Offset`` — and
stores every footprint twice.  The unified table exploits the fact that
*short events are carried in long events*:

* the table is **indexed** by a hash of the short event (``PC+Offset``),
* each entry is **tagged** with the full long event (``PC+Address``),
* and each entry additionally remembers the short-event components so a
  short lookup can be answered from the same set.

A lookup first tag-matches the long event; only if that fails are the
entries of the *same set* re-scanned for short-event matches (both events
of one trigger hash to the same set by construction).  When several short
matches exist, a block is prefetched if it appears in at least
``vote_threshold`` (20 %) of the matching footprints — the heuristic the
paper found best — or, optionally, the most recent match wins.

Trigger PCs and offsets recur (a program has few load sites), so each
table hashes them once: the set index is memoised per ``(pc, offset)``
and the long event's first round per ``pc``.  :meth:`BingoHistoryTable.
insert` returns what it displaced, and the owner traces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.common.bitvec import Footprint, vote
from repro.common.hashing import combine_from
from repro.common.table import SetAssociativeTable
from repro.core.events import EventKind, event_key, pc_address_head


@dataclass
class _HistoryPayload:
    """Entry payload: short-event components + the stored footprint."""

    pc: int
    offset: int
    footprint: Footprint


class HistoryMatch(NamedTuple):
    """Result of a history lookup."""

    footprint: Footprint
    matched: EventKind  # which event produced the match
    num_matches: int = 1  # >1 only for voted short-event matches


class BingoHistoryTable:
    """The single, dual-lookup history table of Fig. 5."""

    #: modelled entry overhead beyond the footprint: partial long-event tag
    #: (paper stores enough PC+Address bits to disambiguate), short-event
    #: offset bits, recency and valid bits.  Chosen so the default 16 K ×
    #: 32-block configuration costs ~119 KB, matching Section VI-A.
    TAG_BITS = 23
    RECENCY_BITS = 4
    VALID_BITS = 1

    def __init__(
        self,
        entries: int = 16 * 1024,
        ways: int = 16,
        blocks_per_region: int = 32,
        vote_threshold: float = 0.20,
        short_match_policy: str = "vote",
    ) -> None:
        if ways < 1:
            raise ValueError(f"ways must be at least 1, got {ways}")
        if entries < 1:
            raise ValueError(f"entries must be at least 1, got {entries}")
        if entries % ways:
            raise ValueError(f"entries ({entries}) must be a multiple of ways ({ways})")
        sets = entries // ways
        if sets & (sets - 1):
            raise ValueError(f"sets must be a power of two, got {sets}")
        if short_match_policy not in ("vote", "most_recent"):
            raise ValueError(
                f"short_match_policy must be 'vote' or 'most_recent', "
                f"got {short_match_policy!r}"
            )
        self.entries = entries
        self.ways = ways
        self.blocks_per_region = blocks_per_region
        self.vote_threshold = vote_threshold
        self.short_match_policy = short_match_policy
        self._sets = sets
        self._table: SetAssociativeTable[_HistoryPayload] = SetAssociativeTable(
            sets=sets, ways=ways
        )
        # (pc, offset) -> set index, and pc -> the long event's first
        # round; both are bounded by the program's load sites
        self._index_memo: dict = {}
        self._head_memo: dict = {}

    # -- event plumbing ------------------------------------------------------
    def _events(self, pc: int, block: int, offset: int) -> Tuple[int, int]:
        """A trigger's set index, a hash of the *short* event only
        (Section IV), and its long-event tag."""
        index = self._index_memo.get((pc, offset))
        if index is None:
            index = self._index_memo[pc, offset] = self._table.set_index(
                event_key(EventKind.PC_OFFSET, pc, 0, offset)
            )
        head = self._head_memo.get(pc)
        if head is None:
            head = self._head_memo[pc] = pc_address_head(pc)
        return index, combine_from(head, block)

    # -- training ----------------------------------------------------------------
    def insert(
        self, pc: int, block: int, offset: int, footprint: Footprint
    ) -> Optional[Tuple[int, int, int]]:
        """File a footprint under its trigger's long event.

        Stored once — tagged ``PC+Address``, placed in the set chosen by
        ``PC+Offset`` — which is exactly how the redundancy of the naive
        two-table design is eliminated.  Returns the ``(key, pc, offset)``
        of the entry a full set displaced (its long-event tag and
        short-event components), or None.
        """
        if footprint.width != self.blocks_per_region:
            raise ValueError(
                f"footprint width {footprint.width} != region blocks "
                f"{self.blocks_per_region}"
            )
        index, long_key = self._events(pc, block, offset)
        displaced = self._table.insert(
            long_key,
            _HistoryPayload(pc, offset, footprint.copy()),
            index=index,
        )
        if displaced is None:
            return None
        key, payload = displaced
        return key, payload.pc, payload.offset

    # -- prediction -----------------------------------------------------------------
    def lookup(self, pc: int, block: int, offset: int) -> Optional[HistoryMatch]:
        """Dual lookup: long event first, then short within the same set."""
        index, long_key = self._events(pc, block, offset)
        payload = self._table.lookup(long_key, index=index)
        if payload is not None:
            return HistoryMatch(payload.footprint.copy(), EventKind.PC_ADDRESS)

        # Long event missed: rescan the same set matching only the
        # short-event bits (the gray path of Fig. 5).  The scan lists the
        # set least recent first, so the most recent match is the last.
        matches: List[_HistoryPayload] = [
            entry_payload
            for _tag, entry_payload in self._table.scan_set(index)
            if entry_payload.pc == pc and entry_payload.offset == offset
        ]
        if not matches:
            return None
        if len(matches) == 1 or self.short_match_policy == "most_recent":
            return HistoryMatch(
                matches[-1].footprint.copy(), EventKind.PC_OFFSET, len(matches)
            )
        voted = vote([payload.footprint for payload in matches],
                     self.vote_threshold)
        return HistoryMatch(voted, EventKind.PC_OFFSET, len(matches))

    # -- reporting ---------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    @property
    def storage_bits(self) -> int:
        """Modelled metadata cost (Section VI-A: ~119 KB at 16 K entries)."""
        per_entry = (
            self.blocks_per_region
            + self.TAG_BITS
            + self.RECENCY_BITS
            + self.VALID_BITS
        )
        return self.entries * per_entry
