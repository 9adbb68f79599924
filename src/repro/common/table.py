"""A generic set-associative table.

Nearly every structure in the paper — the LLC, Bingo's filter, accumulation
and history tables, SMS's history table, SPP's signature table, AMPM's
access-map table — is a set-associative array of ``(tag, payload)`` entries
with LRU replacement.  :class:`SetAssociativeTable` implements that once for
every prefetcher's metadata.  Evictions are return values, so owners can
commit state right after the call that displaced it (e.g. Bingo moves an
accumulation-table entry into the history table when it is evicted): an
``insert`` into a full set returns the ``(tag, payload)`` it displaced,
and ``pop`` the payload it removed.  Each set is an ``OrderedDict`` of
``tag -> payload``, least recent first — the representation
:class:`repro.memsys.cache.Cache` keeps its sets in.  Both start every
set as :data:`EMPTY_SET`, one shared ``OrderedDict`` that is never
filled, and give a set its own at its first fill, so reads need no
test.  The LLC's block-keyed replacement policies live in
:mod:`repro.memsys.replacement`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.common.hashing import fold

P = TypeVar("P")

#: the set in every slot of a fresh table or cache: shared by all of
#: them and never filled (``insert`` and ``Cache.fill`` replace it with
#: a set of its own first).  Bingo and SMS keep 16 K-entry history tables
#: on every core and the paper's LLC has 8 K sets; a short run fills a
#: fraction of them.
EMPTY_SET: "OrderedDict" = OrderedDict()


def sets_for(keyword: str, entries: int, ways: int) -> int:
    """Set count of a ``ways``-way table holding ``entries`` entries.

    Raises ``ValueError`` naming ``keyword`` (the owner's size argument)
    unless ``entries`` is ``ways`` times a power of two, so a table is
    never built smaller or larger than its owner charges storage for.
    """
    if ways < 1:
        raise ValueError(f"ways must be at least 1, got {ways}")
    sets = entries // ways
    if sets < 1 or sets * ways != entries or sets & (sets - 1):
        raise ValueError(
            f"{keyword} must be {ways} times a power of two, got {entries}"
        )
    return sets


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
    """

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"sets must be a positive power of two, got {sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self.index_bits = sets.bit_length() - 1
        # Each set is an OrderedDict tag -> payload, least recent first,
        # EMPTY_SET until its first fill.  A fill or a touching hit moves
        # the tag to the end; a full set evicts its first.  Split
        # index/tag schemes (the history table) can legally hold the same
        # tag in several sets.
        self._sets: List["OrderedDict[int, P]"] = [EMPTY_SET] * sets
        # fold() costs a SplitMix64 round plus up to 6 halving steps.
        # Keys recur heavily (spatial locality), so memoise the fold per
        # table.
        self._fold_memo: dict = {}

    # -- geometry -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

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
        if index is None:
            index = self._fold_memo.get(key)
            if index is None:
                index = self.set_index(key)
        entries = self._sets[index]
        if key not in entries:
            return None
        if touch:
            entries.move_to_end(key)
        return entries[key]

    def scan_set(self, index: int) -> List[Tuple[int, P]]:
        """All valid entries of a set as ``(tag, payload)`` pairs, least
        recent first (Bingo's most-recent-match heuristic takes the last)."""
        return list(self._sets[index].items())

    # -- updates ----------------------------------------------------------------
    def insert(
        self, key: int, payload: P, index: Optional[int] = None
    ) -> Optional[Tuple[int, P]]:
        """Insert or overwrite the entry tagged ``key``.

        If the key is already present its payload is replaced in place and
        recency updated; otherwise a full set evicts its least recent
        entry.  Returns the displaced ``(tag, payload)``, or None.
        """
        if index is None:
            index = self._fold_memo.get(key)
            if index is None:
                index = self.set_index(key)
        entries = self._sets[index]
        victim = None
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.ways:
            victim = entries.popitem(last=False)
        elif entries is EMPTY_SET:
            entries = self._sets[index] = OrderedDict()
        entries[key] = payload
        return victim

    def pop(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key``; returns its payload, or None."""
        if index is None:
            index = self._fold_memo.get(key)
            if index is None:
                index = self.set_index(key)
        return self._sets[index].pop(key, None)

    #: the hardware name for removing an entry: ending a region's
    #: residency invalidates its accumulation entry
    invalidate = pop

    def items(self) -> List[Tuple[int, P]]:
        """All valid ``(tag, payload)`` pairs, set-major, least recent
        first within a set."""
        return [pair for entries in self._sets for pair in entries.items()]
