"""Classic PC-indexed stride prefetcher (Baer–Chen style).

Referenced in Section II as the simplest member of the shared-history
(SHH) class.  A reference-prediction table maps each load PC to its last
address, the last observed stride, and a two-bit confidence counter;
confident strides are extrapolated ``degree`` steps ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.common.table import SetAssociativeTable
from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest

_CONF_MAX = 3
_CONF_PREFETCH = 2


@dataclass
class _StrideEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Per-PC stride detection with 2-bit confidence."""

    name = "stride"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        entries: int = 256,
        ways: int = 4,
        degree: int = 4,
    ) -> None:
        super().__init__(address_map)
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.entries = entries
        self._table: SetAssociativeTable[_StrideEntry] = SetAssociativeTable(
            sets=max(1, entries // ways), ways=ways
        )

    def on_access(self, info: AccessInfo) -> List[PrefetchRequest]:
        self.stats.add("accesses")
        entry = self._table.lookup(info.pc)
        if entry is None:
            self._table.insert(info.pc, _StrideEntry(last_block=info.block))
            return []

        stride = info.block - entry.last_block
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(_CONF_MAX, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = stride
        entry.last_block = info.block

        if entry.confidence < _CONF_PREFETCH or entry.stride == 0:
            return []
        self.stats.add("predictions")
        return [
            PrefetchRequest(block=info.block + k * entry.stride)
            for k in range(1, self.degree + 1)
        ]

    def reset(self) -> None:
        super().reset()
        self._table.clear()

    @property
    def storage_bits(self) -> int:
        # last block address (~42b) + stride (12b) + confidence (2b) + tag (16b)
        return self.entries * (42 + 12 + 2 + 16)
