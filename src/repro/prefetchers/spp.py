"""Signature Path Prefetcher (Kim et al., MICRO 2016).

SPP is the paper's strongest delta-based SHH baseline.  Per page, a
*signature* — a compressed hash of the page's recent delta history — is
maintained in the Signature Table; the Pattern Table maps signatures to
the deltas that followed them, with confidence counters.

Prediction is *lookahead*: starting from the current signature, SPP
speculatively walks the pattern table, multiplying per-step confidences
into a path confidence, and keeps prefetching down the path while the
confidence stays above a threshold.  That threshold is the throttle knob
the paper's iso-degree study turns to 1 % (Section VI-E).

Configuration follows Section V: 256-entry signature table, 512-entry
pattern table, 1024-entry prefetch filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.addresses import AddressMap
from repro.common.table import SetAssociativeTable
from repro.prefetchers.base import AccessInfo, Prefetcher

_SIG_BITS = 12
_SIG_MASK = (1 << _SIG_BITS) - 1
_SIG_SHIFT = 3
_DELTA_SLOTS = 4
_COUNTER_MAX = 15


def advance_signature(signature: int, delta: int) -> int:
    """The SPP signature update: shift-and-xor of the signed delta."""
    return ((signature << _SIG_SHIFT) ^ (delta & _SIG_MASK)) & _SIG_MASK


@dataclass
class _SignatureEntry:
    last_offset: int
    signature: int = 0


@dataclass
class _PatternEntry:
    """Per-signature delta candidates with confidence counters."""

    total: int = 0
    deltas: Dict[int, int] = field(default_factory=dict)

    def update(self, delta: int) -> None:
        if self.total >= _COUNTER_MAX * _DELTA_SLOTS:
            # Periodic decay keeps confidences adaptive.
            self.total //= 2
            for d in list(self.deltas):
                self.deltas[d] //= 2
                if self.deltas[d] == 0:
                    del self.deltas[d]
        self.total += 1
        if delta in self.deltas:
            self.deltas[delta] += 1
        elif len(self.deltas) < _DELTA_SLOTS:
            self.deltas[delta] = 1
        else:
            weakest = min(self.deltas, key=self.deltas.get)
            if self.deltas[weakest] <= 1:
                del self.deltas[weakest]
                self.deltas[delta] = 1

    def best(self) -> Optional[tuple]:
        """(delta, confidence) of the strongest candidate, if any."""
        if not self.deltas or self.total == 0:
            return None
        delta = max(self.deltas, key=self.deltas.get)
        return delta, self.deltas[delta] / self.total


class SppPrefetcher(Prefetcher):
    """Path-confidence lookahead prefetching over delta signatures."""

    name = "spp"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        signature_entries: int = 256,
        pattern_entries: int = 512,
        filter_entries: int = 1024,
        confidence_threshold: float = 0.25,
        max_depth: int = 8,
    ) -> None:
        super().__init__(address_map)
        if not 0 < confidence_threshold <= 1:
            raise ValueError("confidence_threshold must be in (0, 1]")
        if filter_entries < 1:
            raise ValueError(
                f"filter_entries must be at least 1, got {filter_entries}"
            )
        self.confidence_threshold = confidence_threshold
        self.max_depth = max_depth
        self.signature_entries = signature_entries
        self.pattern_entries = pattern_entries
        self._signatures: SetAssociativeTable[_SignatureEntry] = SetAssociativeTable(
            sets=max(1, signature_entries // 4), ways=4
        )
        self._patterns: SetAssociativeTable[_PatternEntry] = SetAssociativeTable(
            sets=max(1, pattern_entries // 4), ways=4
        )
        # recency-bounded set suppressing duplicate prefetch candidates
        self._filter: SetAssociativeTable[bool] = SetAssociativeTable(
            sets=1, ways=filter_entries
        )
        self._blocks_per_page = self.address_map.blocks_per_page

    # -- training -----------------------------------------------------------
    def _pattern_for(self, signature: int) -> _PatternEntry:
        entry = self._patterns.lookup(signature)
        if entry is None:
            entry = _PatternEntry()
            self._patterns.insert(signature, entry)
        return entry

    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        amap = self.address_map
        page = info.block >> (amap.page_bits - amap.block_bits)
        offset = info.block & (self._blocks_per_page - 1)
        page_base_block = page << (amap.page_bits - amap.block_bits)

        entry = self._signatures.lookup(page)
        if entry is None:
            self._signatures.insert(page, _SignatureEntry(last_offset=offset))
            return []

        delta = offset - entry.last_offset
        if delta == 0:
            return []
        self._pattern_for(entry.signature).update(delta)
        entry.signature = advance_signature(entry.signature, delta)
        entry.last_offset = offset

        return self._lookahead(entry.signature, offset, page_base_block)

    # -- prediction -----------------------------------------------------------
    def _lookahead(
        self, signature: int, offset: int, page_base_block: int
    ) -> List[int]:
        requests: List[int] = []
        confidence = 1.0
        current_offset = offset
        for _depth in range(self.max_depth):
            pattern = self._patterns.lookup(signature, touch=False)
            if pattern is None:
                break
            best = pattern.best()
            if best is None:
                break
            delta, step_confidence = best
            confidence *= step_confidence
            if confidence < self.confidence_threshold:
                break
            current_offset += delta
            if not 0 <= current_offset < self._blocks_per_page:
                break  # SPP's page-boundary stop (no cross-page bootstrap here)
            block = page_base_block + current_offset
            if self._filter.lookup(block) is None:
                self._filter.insert(block, True)
                requests.append(block)
            signature = advance_signature(signature, delta)
        if requests:
            self.stats.add("predictions")
        return requests

    @property
    def storage_bits(self) -> int:
        st = self.signature_entries * (16 + 6 + _SIG_BITS)  # tag+offset+sig
        pt = self.pattern_entries * (_SIG_BITS + _DELTA_SLOTS * (7 + 4) + 4)
        pf = self._filter.capacity * 42
        return st + pt + pf
