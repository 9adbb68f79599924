"""A generic set-associative table.

Nearly every structure in the paper — the LLC, Bingo's filter, accumulation
and history tables, SMS's history table, SPP's signature table, AMPM's
access-map table — is a set-associative array of ``(tag, payload)`` entries
with LRU replacement.  :class:`SetAssociativeTable` implements that once for
every prefetcher's metadata, with eviction callbacks so owners can commit
state (e.g. Bingo moves an accumulation-table entry into the history table
when it is evicted).  Each set is an ``OrderedDict`` of ``tag -> payload``,
least recent first — the representation :class:`repro.memsys.cache.Cache`
keeps its sets in.  The LLC's block-keyed replacement policies live in
:mod:`repro.memsys.replacement`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from repro.common.hashing import fold

P = TypeVar("P")

#: tells an absent tag from a stored ``None`` payload
_ABSENT = object()


class SetAssociativeTable(Generic[P]):
    """Set-associative ``tag -> payload`` storage with LRU replacement.

    Keys are arbitrary ints; the set index is a fold of the key unless the
    caller supplies an explicit index (Bingo indexes by a *different* event
    than it tags with, which is the whole storage trick of the paper — see
    :class:`repro.core.history.BingoHistoryTable`).  A fully associative
    LRU set of ``N`` entries is ``SetAssociativeTable(sets=1, ways=N)``.

    Parameters
    ----------
    sets, ways:
        Geometry; ``sets`` must be a power of two, ``ways`` positive.
    on_evict:
        Optional callback ``(tag, payload) -> None`` invoked whenever a
        valid entry is displaced or explicitly invalidated.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        on_evict: Optional[Callable[[int, P], None]] = None,
    ) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"sets must be a positive power of two, got {sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self.index_bits = sets.bit_length() - 1
        self.on_evict = on_evict
        # Each set is an OrderedDict tag -> payload, least recent first,
        # allocated on its first fill: None until then.  Bingo and SMS
        # keep 16 K-entry history tables on every core, and a short run
        # fills a fraction of their sets.  A fill or a touching hit moves
        # the tag to the end; a full set evicts its first.  Split
        # index/tag schemes (the history table) can legally hold the same
        # tag in several sets.
        self._sets: List[Optional["OrderedDict[int, P]"]] = [None] * sets
        # fold() costs a SplitMix64 round plus up to 6 halving steps.
        # Keys recur heavily (spatial locality), so memoise the fold per
        # table.
        self._fold_memo: dict = {}

    # -- geometry -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets if entries is not None)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def set_index(self, key: int) -> int:
        """Default set index: hash-fold of the key (memoised)."""
        if not self.index_bits:
            return 0
        memo = self._fold_memo
        idx = memo.get(key)
        if idx is None:
            idx = fold(key, self.index_bits)
            if len(memo) >= 1 << 20:  # bound the memo on huge key spaces
                memo.clear()
            memo[key] = idx
        return idx

    # -- lookups ---------------------------------------------------------------
    def lookup(
        self, key: int, index: Optional[int] = None, touch: bool = True
    ) -> Optional[P]:
        """Return the payload tagged exactly ``key``, or None.

        ``index`` overrides the set index (for split index/tag schemes);
        ``touch`` controls whether the hit updates recency.
        """
        entries = self._sets[self.set_index(key) if index is None else index]
        if entries is None or key not in entries:
            return None
        if touch:
            entries.move_to_end(key)
        return entries[key]

    def scan_set(self, index: int) -> List[Tuple[int, P]]:
        """All valid entries of a set as ``(tag, payload)`` pairs, least
        recent first (Bingo's most-recent-match heuristic takes the last)."""
        entries = self._sets[index]
        return [] if entries is None else list(entries.items())

    # -- updates ----------------------------------------------------------------
    def insert(self, key: int, payload: P, index: Optional[int] = None) -> None:
        """Insert or overwrite the entry tagged ``key``.

        If the key is already present its payload is replaced in place and
        recency updated; otherwise a full set evicts its least recent
        entry, reported through ``on_evict``.
        """
        set_idx = self.set_index(key) if index is None else index
        entries = self._sets[set_idx]
        if entries is None:
            entries = self._sets[set_idx] = OrderedDict()
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.ways:
            tag, old = entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(tag, old)
        entries[key] = payload

    def invalidate(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key``; returns its payload if present.

        The eviction callback fires for explicit invalidations too, since
        owners use it to commit in-flight state.
        """
        entries = self._sets[self.set_index(key) if index is None else index]
        payload = _ABSENT if entries is None else entries.pop(key, _ABSENT)
        if payload is _ABSENT:
            return None
        if self.on_evict is not None:
            self.on_evict(key, payload)
        return payload

    def pop(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key`` *without* firing ``on_evict``."""
        entries = self._sets[self.set_index(key) if index is None else index]
        return None if entries is None else entries.pop(key, None)

    def items(self) -> List[Tuple[int, P]]:
        """All valid ``(tag, payload)`` pairs, set-major, least recent
        first within a set."""
        return [
            pair
            for entries in self._sets
            if entries is not None
            for pair in entries.items()
        ]
