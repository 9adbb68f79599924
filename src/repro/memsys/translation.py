"""Virtual-to-physical address translation.

The paper (Section V) maps virtual to physical pages with a *random
first-touch* policy: the first access to a virtual page picks a random free
physical frame.  This preserves spatial correlation *within* a page (the
property spatial prefetchers rely on) while scattering pages across the
physical address space, so the caches and DRAM banks see realistic
distributions rather than the generator's neat virtual layout.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.common.addresses import AddressMap


class RandomFirstTouchTranslator:
    """Per-core random first-touch page mapping.

    Each core gets its own address space (the evaluated mixes run four
    independent programs; for the server workloads separate spaces slightly
    understate sharing, which does not affect spatial-pattern recurrence —
    noted in DESIGN.md).

    Frames are drawn without replacement from ``physical_pages`` using a
    seeded PRNG, so a given (seed, access sequence) always yields the same
    mapping and experiments are exactly reproducible.
    """

    def __init__(
        self,
        address_map: AddressMap,
        physical_pages: int = 1 << 20,
        seed: int = 42,
    ) -> None:
        if physical_pages <= 0:
            raise ValueError("physical_pages must be positive")
        self.address_map = address_map
        self.physical_pages = physical_pages
        self._rng = random.Random(seed)
        self._mapping: Dict[Tuple[int, int], int] = {}
        self._used_frames: set = set()

    def translate(self, core_id: int, vaddr: int) -> int:
        """Translate a virtual byte address for ``core_id`` to physical."""
        amap = self.address_map
        vpage = amap.page_number(vaddr)
        key = (core_id, vpage)
        frame = self._mapping.get(key)
        if frame is None:
            frame = self._allocate_frame()
            self._mapping[key] = frame
        return (frame << amap.page_bits) | amap.page_offset(vaddr)

    def _allocate_frame(self) -> int:
        if len(self._used_frames) >= self.physical_pages:
            raise RuntimeError(
                "out of physical frames: increase SystemConfig.physical_pages"
            )
        while True:
            frame = self._rng.randrange(self.physical_pages)
            if frame not in self._used_frames:
                self._used_frames.add(frame)
                return frame

    def mapping_view(self) -> Dict[Tuple[int, int], int]:
        """The live ``(core_id, vpage) -> frame`` dict, for batched reads.

        State-export hook for the engine's fast loop, which resolves
        each memory record's frame with one dict lookup instead of a
        :meth:`translate` call.  Callers must treat it as read-only —
        first-touch allocation stays behind :meth:`translate` so the
        seeded PRNG's draw order is preserved exactly.
        """
        return self._mapping

    @property
    def mapped_pages(self) -> int:
        """Number of virtual pages touched so far (footprint in pages)."""
        return len(self._mapping)
