"""Sandbox prefetcher (Pugsley et al., HPCA 2014).

The idea BOP builds on (Section V): candidate offsets are evaluated
*without issuing real prefetches*.  The candidate under test inserts its
would-be prefetches into a "sandbox" (a recency-bounded set standing in
for the paper's Bloom filter); subsequent demand accesses that hit the
sandbox score the candidate.  After an evaluation period the next
candidate is tested; candidates whose score clears the threshold issue
real prefetches, with degree scaled by score.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.common.table import SetAssociativeTable
from repro.prefetchers.base import AccessInfo, Prefetcher

#: candidate offsets, in blocks (±1 … ±8, the original design's set)
_DEFAULT_CANDIDATES = tuple(
    offset for magnitude in range(1, 9) for offset in (magnitude, -magnitude)
)


class SandboxPrefetcher(Prefetcher):
    """Safe run-time evaluation of aggressive offset prefetchers."""

    name = "sandbox"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        candidates=_DEFAULT_CANDIDATES,
        evaluation_period: int = 256,
        sandbox_capacity: int = 2048,
        score_threshold: int = 32,
        max_degree: int = 4,
    ) -> None:
        super().__init__(address_map)
        if not candidates:
            raise ValueError("need at least one candidate offset")
        if sandbox_capacity < 1:
            raise ValueError(
                f"sandbox_capacity must be at least 1, got {sandbox_capacity}"
            )
        self.candidates = tuple(candidates)
        self.evaluation_period = evaluation_period
        self.score_threshold = score_threshold
        self.max_degree = max_degree
        self._sandbox: SetAssociativeTable[bool] = SetAssociativeTable(
            sets=1, ways=sandbox_capacity
        )
        self._scores = {offset: 0 for offset in self.candidates}
        self._current = 0  # index of the candidate under evaluation
        self._accesses_in_period = 0

    # -- evaluation ----------------------------------------------------------
    def _rotate_candidate(self) -> None:
        self._current = (self._current + 1) % len(self.candidates)
        self._accesses_in_period = 0
        self._sandbox = SetAssociativeTable(sets=1, ways=self._sandbox.ways)

    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        candidate = self.candidates[self._current]

        # Score the candidate: did it sandbox-prefetch this block earlier?
        if self._sandbox.lookup(info.block, touch=False) is not None:
            self._scores[candidate] += 1
            self.stats.add("sandbox_hits")

        # Fake-prefetch with the candidate under test.
        self._sandbox.insert(info.block + candidate, True)
        self._accesses_in_period += 1
        if self._accesses_in_period >= self.evaluation_period:
            self._rotate_candidate()

        # Real prefetches from already-qualified offsets.
        requests = []
        for offset in self._qualified_offsets():
            depth = min(
                self.max_degree,
                1 + self._scores[offset] // self.score_threshold,
            )
            requests.extend(info.block + k * offset for k in range(1, depth + 1))
        return requests

    def _qualified_offsets(self) -> List[int]:
        return [
            offset
            for offset, score in self._scores.items()
            if score >= self.score_threshold
        ]

    @property
    def storage_bits(self) -> int:
        # sandbox (block addresses) + per-candidate score counters
        return self._sandbox.capacity * 42 + len(self.candidates) * 12
