"""Access Map Pattern Matching (Ishii et al., ICS 2009) — DPC-1 winner.

AMPM keeps a *memory access map*: per zone (here one OS page), a 2-bit
state per cache block — Init, Access, or Prefetch.  On each access at
offset *t* it tests every stride *k*: if blocks ``t−k`` and ``t−2k`` have
both been accessed, the pattern is assumed strided and ``t+k`` is
prefetched (and symmetrically for the backward direction).  This detects
any constant-stride pattern without per-PC state and is robust to access
reordering — the reason Section VI-B groups it with SMS as the strong
PPH-flavoured baselines.

Per Section V, the map table is sized to cover the whole LLC capacity
(8 MB / 4 KB = 2048 zones by default).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import AccessInfo, Prefetcher


class AmpmPrefetcher(Prefetcher):
    """Stride detection over per-zone access bitmaps."""

    name = "ampm"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        zones: int = 2048,
        max_prefetches_per_access: int = 8,
    ) -> None:
        super().__init__(address_map)
        if zones <= 0:
            raise ValueError(f"zones must be positive, got {zones}")
        self.zones = zones
        self.max_prefetches_per_access = max_prefetches_per_access
        self._blocks_per_zone = self.address_map.blocks_per_page
        # zone -> (access_bits, prefetch_bits); OrderedDict as LRU.
        self._maps: "OrderedDict[int, List[int]]" = OrderedDict()

    # -- map maintenance ------------------------------------------------------
    def _zone_map(self, zone: int) -> List[int]:
        entry = self._maps.get(zone)
        if entry is None:
            entry = [0, 0]
            self._maps[zone] = entry
            if len(self._maps) > self.zones:
                self._maps.popitem(last=False)
        else:
            self._maps.move_to_end(zone)
        return entry

    # -- the access path ---------------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        amap = self.address_map
        zone = info.block >> (amap.page_bits - amap.block_bits)
        t = info.block & (self._blocks_per_zone - 1)
        zone_base_block = zone << (amap.page_bits - amap.block_bits)

        entry = self._zone_map(zone)
        accessed, prefetched = entry
        requests: List[int] = []
        limit = self.max_prefetches_per_access

        n = self._blocks_per_zone
        for k in range(1, n):
            if len(requests) >= limit:
                break
            # Forward: t-k and t-2k accessed => prefetch t+k.
            target = t + k
            if (
                target < n
                and t - k >= 0
                and t - 2 * k >= 0
                and accessed >> (t - k) & 1
                and accessed >> (t - 2 * k) & 1
                and not (accessed | prefetched) >> target & 1
            ):
                prefetched |= 1 << target
                requests.append(zone_base_block + target)
                if len(requests) >= limit:
                    break
            # Backward: t+k and t+2k accessed => prefetch t-k.
            target = t - k
            if (
                target >= 0
                and t + k < n
                and t + 2 * k < n
                and accessed >> (t + k) & 1
                and accessed >> (t + 2 * k) & 1
                and not (accessed | prefetched) >> target & 1
            ):
                prefetched |= 1 << target
                requests.append(zone_base_block + target)

        accessed |= 1 << t
        entry[0] = accessed
        entry[1] = prefetched
        if requests:
            self.stats.add("predictions")
        return requests

    @property
    def storage_bits(self) -> int:
        # 2 bits per block per zone + zone tag (~36 bits).
        return self.zones * (2 * self._blocks_per_zone + 36)
