"""Miss Status Holding Registers.

An MSHR file bounds the number of outstanding misses a cache can have in
flight (Table I: 8 entries at the L1).  In our latency-based model it has
two jobs: *merging* (a second miss to a block already in flight piggybacks
on the first) and *back-pressure* (a miss issued while all entries are busy
stalls until the oldest outstanding miss completes).

Both engine loops go through :meth:`MshrFile.acquire` and
:meth:`MshrFile.commit`, so the stall rule lives in this module only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatGroup

_INF = float("inf")


class MshrFile:
    """Tracks outstanding misses in two sorted lists.

    ``_live`` holds every registered miss as ``(finish, block)`` in
    completion order (``_inflight`` maps ``block -> finish`` for the
    merge probe), and ``_stalled`` holds the stalled reservations whose
    entry claim was still in the future at registration, as
    ``(start, block)`` in start order.  Times are core cycles (floats are
    accepted; ordering is what matters).

    Each :meth:`acquire` at ``now`` first pops the prefix of
    ``_live`` that completed at or before ``now`` and the prefix of
    ``_stalled`` whose starts ``now`` has reached.  A stalled miss starts
    before it finishes, so ``_stalled`` never holds more entries than
    ``_live``.

    A stalled reservation never removes the blocking entries: they remain
    visible to :meth:`acquire`'s merge probe until their real completion
    times, exactly like hardware, where a stalled miss waits in the
    queue while the oldest outstanding miss finishes its fill.

    :meth:`occupancy` and :meth:`outstanding` only read: probing the file
    at any time leaves every later answer unchanged.
    """

    def __init__(self, entries: int, stats: Optional[StatGroup] = None) -> None:
        if entries <= 0:
            raise ValueError(f"MSHR entries must be positive, got {entries}")
        self.entries = entries
        self.stats = stats if stats is not None else StatGroup("mshr")
        self._inflight: Dict[int, float] = {}
        self._live: List[Tuple[float, int]] = []
        self._stalled: List[Tuple[float, int]] = []
        # High-water mark of ``now``: a committed start after it is a
        # stall still waiting for its entry.
        self._clock = -_INF
        # the ``merges``, ``stalls`` and ``allocations`` cells, each made
        # at its first count so the counter joins the group where
        # ``stats.add`` would put it
        self._merges = None
        self._stalls = None
        self._allocations = None

    def outstanding(self, now: float) -> int:
        """Number of registered misses still in flight at ``now``."""
        live = self._live
        return len(live) - bisect_right(live, (now, _INF))

    def occupancy(self, now: float) -> int:
        """Entries actually *occupied* at ``now``: started but not finished.

        Differs from :meth:`outstanding` only while a stalled reservation
        is waiting for its slot: the stalled miss is registered (so later
        accesses can merge with it) but does not hold an entry until its
        start time.  The invariant checker asserts this never exceeds
        ``entries``.
        """
        key = (now, _INF)
        live, stalled = self._live, self._stalled
        return (len(live) - bisect_right(live, key)) - (
            len(stalled) - bisect_right(stalled, key)
        )

    def acquire(self, block: int, now: float) -> Tuple[Optional[float], float]:
        """Merge with an in-flight miss to ``block`` or reserve an entry.

        Returns ``(finish, now)`` when the miss merges, ``finish`` being
        the in-flight miss's completion time, and ``(None, start)``
        otherwise, ``start`` being when the new miss leaves the cache.
        If the file is full at ``now``, stalled requests are served FIFO,
        so the ``overflow``-th completion among the live misses is when
        this one gets an entry.  A reservation is finished by
        :meth:`commit` with the same ``start``.
        """
        live = self._live
        if live and live[0][0] <= now:
            inflight = self._inflight
            while live and live[0][0] <= now:
                del inflight[live.pop(0)[1]]
        if now > self._clock:
            self._clock = now
            stalled = self._stalled
            while stalled and stalled[0][0] <= now:
                del stalled[0]
        finish = self._inflight.get(block)
        if finish is not None:
            cell = self._merges
            if cell is None:
                cell = self._merges = self.stats.counter("merges")
            cell.value += 1
            return finish, now
        overflow = len(live) - self.entries + 1
        if overflow <= 0:
            return None, now
        cell = self._stalls
        if cell is None:
            cell = self._stalls = self.stats.counter("stalls")
        cell.value += 1
        # after expiry every live finish is later than ``now``
        return None, live[overflow - 1][0]

    def commit(self, block: int, finish: float, start: Optional[float] = None) -> None:
        """Register an issued miss that will complete at ``finish``.

        ``start`` is when the miss actually claims its entry (the value
        :meth:`acquire` returned); omitted, the entry is treated as
        occupied from registration, which is exact for unstalled misses.
        Re-registering a block replaces its entry.
        """
        inflight = self._inflight
        old = inflight.get(block)
        if old is not None:
            live = self._live
            del live[bisect_left(live, (old, block))]
            stalled = self._stalled
            for index, (_, other) in enumerate(stalled):
                if other == block:
                    del stalled[index]
                    break
        inflight[block] = finish
        insort(self._live, (finish, block))
        if start is not None and self._clock < start < finish:
            insort(self._stalled, (start, block))
        cell = self._allocations
        if cell is None:
            cell = self._allocations = self.stats.counter("allocations")
        cell.value += 1
