"""A Markov (temporal-correlation) prefetcher.

The paper's Zeus analysis (Section VI-C) says its misses "are more
temporally correlated than spatially": the same *sequence* of blocks
recurs, but the blocks share no page structure.  Spatial prefetchers —
everything the paper evaluates — can do nothing there; a temporal
prefetcher that remembers "block B followed block A last time" can.

This is a deliberately simple pair-wise Markov predictor (Joseph &
Grimsrud style, the ancestor of the paper's temporal citations
[22]–[28]): a bounded table maps a block to the blocks that followed it,
and an access prefetches the top successors.  It exists to *validate the
workload suite* — Zeus should be coverable temporally while resisting
spatially — and as a contrast point in examples; it is not part of the
paper's evaluated set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import AccessInfo, Prefetcher


class MarkovPrefetcher(Prefetcher):
    """Pair-wise block-successor prediction (temporal correlation)."""

    name = "markov"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        entries: int = 64 * 1024,
        successors: int = 2,
        degree: int = 2,
    ) -> None:
        super().__init__(address_map)
        if entries <= 0 or successors <= 0 or degree <= 0:
            raise ValueError("entries, successors and degree must be positive")
        self.entries = entries
        self.successors = successors
        self.degree = degree
        # block -> {successor block: count}, LRU-bounded.
        self._table: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
        self._last_block: Optional[int] = None

    # -- training -------------------------------------------------------------
    def _train(self, block: int) -> None:
        previous = self._last_block
        self._last_block = block
        if previous is None or previous == block:
            return
        entry = self._table.get(previous)
        if entry is None:
            entry = {}
            self._table[previous] = entry
            if len(self._table) > self.entries:
                self._table.popitem(last=False)
        else:
            self._table.move_to_end(previous)
        entry[block] = entry.get(block, 0) + 1
        if len(entry) > self.successors:
            weakest = min(entry, key=entry.get)
            del entry[weakest]

    # -- the access path ---------------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        self._train(info.block)
        requests: List[int] = []
        block = info.block
        for _step in range(self.degree):
            entry = self._table.get(block)
            if not entry:
                break
            block = max(entry, key=entry.get)
            requests.append(block)
        if requests:
            self.stats.add("predictions")
        return requests

    @property
    def storage_bits(self) -> int:
        # Temporal metadata stores full block addresses: orders of
        # magnitude more than spatial footprints - the very trade-off
        # Section II highlights.
        per_entry = 42 + self.successors * (42 + 4)
        return self.entries * per_entry
