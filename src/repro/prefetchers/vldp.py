"""Variable Length Delta Prefetcher (Shevgoor et al., MICRO 2015).

VLDP keeps, per page, the last few *deltas* (block-offset differences of
consecutive accesses) in a Delta History Buffer and predicts the next
delta with a cascade of Delta Prediction Tables (DPTs): DPT-3 is keyed by
the last three deltas, DPT-2 by two, DPT-1 by one — longest match wins,
which is exactly the TAGE-like flavour Section I credits it for.  An
Offset Prediction Table guesses the first delta of a brand-new page from
its first-access offset.

Multi-degree prefetching re-feeds each predicted delta into the tables to
predict further ahead — the strategy Section VI-B observes is inaccurate
on server workloads (and Fig. 10 aggravates with ``degree=32``).

Configuration follows Section V: 16-entry DHB, 64-entry OPT, three
64-entry DPTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.addresses import AddressMap
from repro.common.hashing import combine
from repro.common.table import SetAssociativeTable
from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


@dataclass
class _DhbEntry:
    """Per-page delta history."""

    last_offset: int
    deltas: List[int] = field(default_factory=list)  # most recent last

    def push(self, delta: int, depth: int = 3) -> None:
        self.deltas.append(delta)
        if len(self.deltas) > depth:
            self.deltas.pop(0)


class VldpPrefetcher(Prefetcher):
    """Cascaded delta-history prediction with multi-degree lookahead."""

    name = "vldp"

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        dhb_entries: int = 16,
        opt_entries: int = 64,
        dpt_entries: int = 64,
        degree: int = 4,
    ) -> None:
        super().__init__(address_map)
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.dhb_entries = dhb_entries
        self.opt_entries = opt_entries
        self.dpt_entries = dpt_entries
        self._dhb: SetAssociativeTable[_DhbEntry] = SetAssociativeTable(
            sets=max(1, dhb_entries // 4), ways=4
        )
        # offset -> first delta
        self._opt: SetAssociativeTable[int] = SetAssociativeTable(
            sets=max(1, opt_entries // 4), ways=4
        )
        # one DPT per history length (1, 2, 3): key = hashed delta tuple
        self._dpts: List[SetAssociativeTable[int]] = [
            SetAssociativeTable(sets=max(1, dpt_entries // 4), ways=4)
            for _ in range(3)
        ]
        self._blocks_per_page = self.address_map.blocks_per_page

    # -- table plumbing -------------------------------------------------------
    @staticmethod
    def _key(history: Tuple[int, ...]) -> int:
        return combine(len(history), *history)

    def _train_dpts(self, deltas: List[int], next_delta: int) -> None:
        for length in (1, 2, 3):
            if len(deltas) >= length:
                history = tuple(deltas[-length:])
                self._dpts[length - 1].insert(self._key(history), next_delta)

    def _predict_delta(self, deltas: List[int]) -> Optional[int]:
        """Longest-history DPT that knows this context wins."""
        for length in (3, 2, 1):
            if len(deltas) >= length:
                history = tuple(deltas[-length:])
                prediction = self._dpts[length - 1].lookup(self._key(history))
                if prediction is not None:
                    return prediction
        return None

    # -- the access path ---------------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[PrefetchRequest]:
        self.stats.add("accesses")
        amap = self.address_map
        page = amap.page_number(info.address)
        offset = (info.address >> amap.block_bits) & (self._blocks_per_page - 1)
        page_base_block = page << (amap.page_bits - amap.block_bits)

        entry = self._dhb.lookup(page)
        if entry is None:
            self._dhb.insert(page, _DhbEntry(last_offset=offset))
            first_delta = self._opt.lookup(offset)
            if first_delta is None:
                return []
            # OPT predicts the new page's first delta from its first offset.
            return self._extrapolate(
                page_base_block, offset, [first_delta], seed_delta=first_delta
            )

        delta = offset - entry.last_offset
        if delta == 0:
            return []
        if not entry.deltas:
            self._opt.insert(entry.last_offset, delta)
        self._train_dpts(entry.deltas, delta)
        entry.push(delta)
        entry.last_offset = offset

        return self._extrapolate(page_base_block, offset, list(entry.deltas))

    def _extrapolate(
        self,
        page_base_block: int,
        offset: int,
        deltas: List[int],
        seed_delta: Optional[int] = None,
    ) -> List[PrefetchRequest]:
        """Multi-degree prediction: feed each prediction back as input."""
        requests: List[PrefetchRequest] = []
        current_offset = offset
        history = list(deltas)
        next_delta = seed_delta
        for _step in range(self.degree):
            if next_delta is None:
                next_delta = self._predict_delta(history)
            if next_delta is None:
                break
            current_offset += next_delta
            if not 0 <= current_offset < self._blocks_per_page:
                break
            requests.append(PrefetchRequest(block=page_base_block + current_offset))
            history.append(next_delta)
            if len(history) > 3:
                history.pop(0)
            next_delta = None
        if requests:
            self.stats.add("predictions")
        return requests

    def reset(self) -> None:
        super().reset()
        self._dhb.clear()
        self._opt.clear()
        for table in self._dpts:
            table.clear()

    @property
    def storage_bits(self) -> int:
        dhb = self.dhb_entries * (36 + 6 + 3 * 7)  # page tag + offset + 3 deltas
        opt = self.opt_entries * (6 + 7)
        dpt = 3 * self.dpt_entries * (21 + 7)  # hashed key tag + delta
        return dhb + opt + dpt
