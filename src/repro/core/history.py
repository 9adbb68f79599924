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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.bitvec import Footprint, vote
from repro.common.table import SetAssociativeTable
from repro.core.events import EventKind, event_key


@dataclass
class _HistoryPayload:
    """Entry payload: short-event components + the stored footprint."""

    pc: int
    offset: int
    footprint: Footprint


@dataclass(frozen=True)
class HistoryMatch:
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
        on_evict: Optional[Callable[[int, int, int], None]] = None,
    ) -> None:
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
        # ``on_evict(key, pc, offset)`` reports a capacity-displaced entry
        # by its long-event tag and short-event components; the check
        # harness mirrors the displacement in its unbounded reference.
        self._on_evict = on_evict
        self._table: SetAssociativeTable[_HistoryPayload] = SetAssociativeTable(
            sets=sets,
            ways=ways,
            on_evict=self._handle_evict if on_evict is not None else None,
        )

    def _handle_evict(self, tag: int, payload: _HistoryPayload) -> None:
        self._on_evict(tag, payload.pc, payload.offset)

    # -- event plumbing ------------------------------------------------------
    def _set_index(self, pc: int, offset: int) -> int:
        """Set index: hash of the *short* event only (Section IV)."""
        return self._table.set_index(event_key(EventKind.PC_OFFSET, pc, 0, offset))

    @staticmethod
    def _long_key(pc: int, block: int, offset: int) -> int:
        return event_key(EventKind.PC_ADDRESS, pc, block, offset)

    # -- training ----------------------------------------------------------------
    def insert(self, pc: int, block: int, offset: int, footprint: Footprint) -> None:
        """File a footprint under its trigger's long event.

        Stored once — tagged ``PC+Address``, placed in the set chosen by
        ``PC+Offset`` — which is exactly how the redundancy of the naive
        two-table design is eliminated.
        """
        if footprint.width != self.blocks_per_region:
            raise ValueError(
                f"footprint width {footprint.width} != region blocks "
                f"{self.blocks_per_region}"
            )
        index = self._set_index(pc, offset)
        payload = _HistoryPayload(pc=pc, offset=offset, footprint=footprint.copy())
        self._table.insert(self._long_key(pc, block, offset), payload, index=index)

    # -- prediction -----------------------------------------------------------------
    def lookup(self, pc: int, block: int, offset: int) -> Optional[HistoryMatch]:
        """Dual lookup: long event first, then short within the same set."""
        index = self._set_index(pc, offset)
        long_key = self._long_key(pc, block, offset)

        payload = self._table.lookup(long_key, index=index)
        if payload is not None:
            return HistoryMatch(
                footprint=payload.footprint.copy(), matched=EventKind.PC_ADDRESS
            )

        # Long event missed: rescan the same set matching only the
        # short-event bits (the gray path of Fig. 5).
        matches: List[tuple] = [
            (way, entry_payload)
            for way, _tag, entry_payload in self._table.scan_set(index)
            if entry_payload.pc == pc and entry_payload.offset == offset
        ]
        if not matches:
            return None
        if len(matches) == 1 or self.short_match_policy == "most_recent":
            way, payload = min(
                matches, key=lambda m: self._table.recency_rank(index, m[0])
            )
            return HistoryMatch(
                footprint=payload.footprint.copy(),
                matched=EventKind.PC_OFFSET,
                num_matches=len(matches),
            )
        voted = vote([payload.footprint for _way, payload in matches],
                     self.vote_threshold)
        return HistoryMatch(
            footprint=voted, matched=EventKind.PC_OFFSET, num_matches=len(matches)
        )

    def clear(self) -> None:
        """Forget all stored footprints."""
        self._table.clear()

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
