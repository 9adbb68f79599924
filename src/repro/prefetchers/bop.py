"""Best-Offset Prefetcher (Michaud, HPCA 2016) — DPC-2 winner.

BOP searches for the single best prefetch *offset* D: the one for which,
when block X is accessed, block X − D was reliably accessed recently
(meaning a prefetch of X issued at time of X − D would have been timely).

Learning is round-based.  Each candidate offset is tested once per round
against the Recent Requests (RR) table (256 entries, as configured in
Section V): a hit scores the candidate.  A round ends when every offset
has been tested; learning ends when a score reaches ``score_max`` or
``round_max`` rounds elapse, at which point the best-scoring offset is
adopted (or prefetching turns off if the score is below ``bad_score``)
and learning restarts.

The candidate list is the original design's: offsets 1…256 whose prime
factorisation uses only {2, 3, 5}.

The paper's iso-degree study (Fig. 10) raises BOP's degree to 32; the
``degree`` parameter issues ``k·D`` for ``k = 1 … degree``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import AccessInfo, Prefetcher


def _low_prime_offsets(limit: int = 256) -> tuple:
    """Offsets in [1, limit] with no prime factor above 5 (BOP's list)."""
    offsets = []
    for n in range(1, limit + 1):
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            offsets.append(n)
    return tuple(offsets)


_DEFAULT_OFFSETS = _low_prime_offsets()


class _RecentRequests:
    """Direct-mapped table of recently accessed block numbers."""

    def __init__(self, entries: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self._mask = entries - 1
        self._slots: List[Optional[int]] = [None] * entries

    def insert(self, block: int) -> None:
        self._slots[block & self._mask] = block

    def __contains__(self, block: int) -> bool:
        return self._slots[block & self._mask] == block


class BestOffsetPrefetcher(Prefetcher):
    """Round-based best-offset search over a Recent Requests table."""

    name = "bop"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        rr_entries: int = 256,
        offsets=_DEFAULT_OFFSETS,
        score_max: int = 31,
        round_max: int = 100,
        bad_score: int = 1,
        degree: int = 1,
    ) -> None:
        super().__init__(address_map)
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.offsets = tuple(offsets)
        self.score_max = score_max
        self.round_max = round_max
        self.bad_score = bad_score
        self.degree = degree
        self.rr_entries = rr_entries
        self._rr = _RecentRequests(rr_entries)
        self._scores = [0] * len(self.offsets)
        self._test_index = 0
        self._round = 0
        self.best_offset: Optional[int] = 1  # start prefetching with +1
        self._prefetch_enabled = True

    # -- learning -------------------------------------------------------------
    def _end_learning_phase(self) -> None:
        best_index = max(range(len(self.offsets)), key=self._scores.__getitem__)
        best_score = self._scores[best_index]
        if best_score > self.bad_score:
            self.best_offset = self.offsets[best_index]
            self._prefetch_enabled = True
        else:
            # No offset is working: throttle off (BOP's off state).
            self._prefetch_enabled = False
        self.stats.add("learning_phases")
        self._scores = [0] * len(self.offsets)
        self._test_index = 0
        self._round = 0

    def _learn(self, block: int) -> None:
        offset = self.offsets[self._test_index]
        if (block - offset) in self._rr:
            self._scores[self._test_index] += 1
            if self._scores[self._test_index] >= self.score_max:
                self._end_learning_phase()
                return
        self._test_index += 1
        if self._test_index >= len(self.offsets):
            self._test_index = 0
            self._round += 1
            if self._round >= self.round_max:
                self._end_learning_phase()

    # -- the access path ----------------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        # BOP trains on misses and prefetched hits; with the LLC dropping
        # resident-duplicate prefetches, training on every access is the
        # closest equivalent in this model.
        self._learn(info.block)
        self._rr.insert(info.block)

        if not self._prefetch_enabled or self.best_offset is None:
            return []
        self.stats.add("predictions")
        return [
            info.block + k * self.best_offset for k in range(1, self.degree + 1)
        ]

    @property
    def storage_bits(self) -> int:
        # RR table of block addresses + per-offset score counters
        return self.rr_entries * 42 + len(self.offsets) * 6
