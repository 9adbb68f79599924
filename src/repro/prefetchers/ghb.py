"""Global History Buffer prefetching, G/DC flavour (Nesbit & Smith,
HPCA 2004 — the paper's reference [66]).

The GHB is a FIFO of recent miss addresses; an index table chains
entries belonging to the same *localisation key* (here the load PC, the
classic PC/DC variant).  On each access, the last few deltas of the
PC's chain are computed and matched against the chain's earlier history
(delta correlation); on a match, the deltas that followed historically
are replayed as prefetches.

Included as the canonical pre-SMS delta prefetcher: a useful historical
baseline between plain stride and VLDP/SPP.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import AccessInfo, Prefetcher


class GhbPrefetcher(Prefetcher):
    """PC-localised delta-correlation over a global history buffer."""

    name = "ghb"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        buffer_entries: int = 256,
        index_entries: int = 256,
        match_length: int = 2,
        degree: int = 4,
    ) -> None:
        super().__init__(address_map)
        if buffer_entries <= 0:
            raise ValueError("buffer_entries must be positive")
        if match_length < 1:
            raise ValueError("match_length must be >= 1")
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.buffer_entries = buffer_entries
        self.index_entries = index_entries
        self.match_length = match_length
        self.degree = degree
        # The GHB proper: ring buffer of (block, previous-index-of-same-pc).
        self._blocks: List[int] = []
        self._links: List[Optional[int]] = []
        self._head = 0  # global insertion counter
        self._index: Dict[int, int] = {}  # pc -> most recent position

    # -- GHB maintenance ----------------------------------------------------
    def _push(self, pc: int, block: int) -> None:
        position = self._head
        previous = self._index.get(pc)
        if previous is not None and position - previous >= self.buffer_entries:
            previous = None  # chain link fell off the FIFO
        self._blocks.append(block)
        self._links.append(previous)
        if len(self._blocks) > self.buffer_entries:
            # Ring behaviour: drop the oldest (indices stay global; we
            # translate through an offset).
            self._blocks.pop(0)
            self._links.pop(0)
        self._index[pc] = position
        if len(self._index) > self.index_entries:
            # Cheap FIFO-ish bound on the index table.
            self._index.pop(next(iter(self._index)))
        self._head += 1

    def _chain(self, pc: int) -> List[int]:
        """Blocks of the PC's chain, most recent first."""
        base = self._head - len(self._blocks)
        out: List[int] = []
        position = self._index.get(pc)
        while position is not None and position >= base:
            out.append(self._blocks[position - base])
            position = self._links[position - base]
            if len(out) > self.buffer_entries:
                break  # defensive: corrupt chains cannot loop forever
        return out

    # -- the access path -------------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        chain = self._chain(info.pc)
        self._push(info.pc, info.block)
        if len(chain) < self.match_length + 1:
            return []

        # Deltas of the chain, most recent first: d[0] = newest.
        deltas = [
            chain[i] - chain[i + 1] for i in range(len(chain) - 1)
        ]
        current = [info.block - chain[0]] + deltas[: self.match_length - 1]
        if any(d == 0 for d in current):
            return []

        # Find the most recent earlier occurrence of the current delta
        # pattern; replay what followed it.
        for start in range(1, len(deltas) - self.match_length + 1):
            window = deltas[start : start + self.match_length]
            if window == current:
                followed = deltas[max(0, start - self.degree) : start]
                block = info.block
                requests = []
                for delta in reversed(followed):
                    block += delta
                    requests.append(block)
                if requests:
                    self.stats.add("predictions")
                return requests
        return []

    @property
    def storage_bits(self) -> int:
        # GHB entries (block address + link) + index table (pc tag + ptr).
        ghb = self.buffer_entries * (42 + 8)
        index = self.index_entries * (16 + 8)
        return ghb + index
