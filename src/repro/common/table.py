"""A generic set-associative table.

Nearly every structure in the paper — the LLC, Bingo's filter, accumulation
and history tables, SMS's history table, SPP's signature table, AMPM's
access-map table — is a set-associative array of ``(tag, payload)`` entries
with LRU replacement.  :class:`SetAssociativeTable` implements that once,
with eviction callbacks so owners can commit state (e.g. Bingo moves an
accumulation-table entry into the history table when it is evicted).  The
LLC's block-keyed replacement policies live in
:mod:`repro.memsys.replacement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from repro.common.hashing import fold

P = TypeVar("P")


@dataclass
class Entry(Generic[P]):
    """One valid table entry: a full tag plus an owner-defined payload."""

    tag: int
    payload: P


class SetAssociativeTable(Generic[P]):
    """Set-associative ``tag -> payload`` storage with LRU replacement.

    Keys are arbitrary ints; the set index is a fold of the key unless the
    caller supplies an explicit index (Bingo indexes by a *different* event
    than it tags with, which is the whole storage trick of the paper — see
    :class:`repro.core.history.BingoHistoryTable`).

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
        # A set's ways, and its LRU order over way indices (most recent
        # first), are allocated on the set's first fill: None until then.
        # Bingo and SMS keep 16 K-entry history tables on every core, and
        # a short run fills a fraction of their sets.  A fill or a
        # touching hit moves the way to the front of the order; an
        # invalidation leaves it in place (the victim scan prefers
        # invalid ways).
        self._entries: List[Optional[List[Optional[Entry[P]]]]] = [None] * sets
        self._recency: List[Optional[List[int]]] = [None] * sets
        # Location index over the valid entries: (set, tag) -> way.  The
        # tables sit on the simulator's miss path (every LLC eviction
        # probes Bingo's filter *and* accumulation tables per core), so
        # lookups must not pay a linear way scan.  Keyed by set as well
        # as tag because split index/tag schemes (the history table) can
        # legally hold the same tag in several sets.
        self._where: dict = {}
        # fold() costs a SplitMix64 round plus up to 6 halving steps.
        # Keys recur heavily (spatial locality), so memoise the fold per
        # table.
        self._fold_memo: dict = {}

    # -- geometry -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._where)

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
        set_idx = self.set_index(key) if index is None else index
        way = self._where.get((set_idx, key))
        if way is None:
            return None
        if touch:
            order = self._recency[set_idx]
            order.remove(way)
            order.insert(0, way)
        return self._entries[set_idx][way].payload

    def scan_set(self, index: int) -> List[Tuple[int, int, P]]:
        """All valid entries of a set as ``(way, tag, payload)`` tuples.

        Order is physical way order; combine with :meth:`recency_rank` to
        sort by recency (Bingo's most-recent-match heuristic).
        """
        ways = self._entries[index]
        if ways is None:
            return []
        return [
            (way, entry.tag, entry.payload)
            for way, entry in enumerate(ways)
            if entry is not None
        ]

    def recency_rank(self, index: int, way: int) -> int:
        """Recency of a way within its set (0 = MRU, ``ways - 1`` = LRU)."""
        order = self._recency[index]
        return way if order is None else order.index(way)

    # -- updates ----------------------------------------------------------------
    def insert(self, key: int, payload: P, index: Optional[int] = None) -> None:
        """Insert or overwrite the entry tagged ``key``.

        If the key is already present its payload is replaced in place and
        recency updated; otherwise the victim is the lowest-index invalid
        way, else the LRU way, and the displaced entry, if valid, is
        reported through ``on_evict``.
        """
        set_idx = self.set_index(key) if index is None else index
        ways = self._entries[set_idx]
        if ways is None:
            ways = self._entries[set_idx] = [None] * self.ways
            self._recency[set_idx] = list(range(self.ways))
        order = self._recency[set_idx]
        where = self._where
        way = where.get((set_idx, key))
        if way is not None:
            ways[way].payload = payload
        else:
            for way, old in enumerate(ways):
                if old is None:
                    break
            else:
                way = order[-1]
                old = ways[way]
                del where[(set_idx, old.tag)]
                if self.on_evict is not None:
                    self.on_evict(old.tag, old.payload)
            ways[way] = Entry(key, payload)
            where[(set_idx, key)] = way
        order.remove(way)
        order.insert(0, way)

    def invalidate(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key``; returns its payload if present.

        The eviction callback fires for explicit invalidations too, since
        owners use it to commit in-flight state.
        """
        set_idx = self.set_index(key) if index is None else index
        way = self._where.pop((set_idx, key), None)
        if way is None:
            return None
        ways = self._entries[set_idx]
        entry = ways[way]
        ways[way] = None
        if self.on_evict is not None:
            self.on_evict(entry.tag, entry.payload)
        return entry.payload

    def pop(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key`` *without* firing ``on_evict``."""
        set_idx = self.set_index(key) if index is None else index
        way = self._where.pop((set_idx, key), None)
        if way is None:
            return None
        ways = self._entries[set_idx]
        entry = ways[way]
        ways[way] = None
        return entry.payload

    def items(self) -> List[Tuple[int, P]]:
        """All valid ``(tag, payload)`` pairs, set-major order."""
        return [
            (entry.tag, entry.payload)
            for ways in self._entries
            if ways is not None
            for entry in ways
            if entry is not None
        ]

    def clear(self) -> None:
        """Drop all entries without firing eviction callbacks.

        Filled sets keep their recency order; a never-filled set stays
        unallocated.
        """
        for ways in self._entries:
            if ways is not None:
                ways[:] = [None] * self.ways
        self._where.clear()
