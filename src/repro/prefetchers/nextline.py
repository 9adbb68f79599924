"""Next-line prefetcher: the simplest useful baseline.

Not evaluated in the paper's figures, but indispensable as a sanity
baseline for tests and examples: on every LLC demand access it prefetches
the next ``degree`` sequential blocks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import AccessInfo, Prefetcher


class NextLinePrefetcher(Prefetcher):
    """Prefetch blocks ``X+1 … X+degree`` on an access to block ``X``."""

    name = "nextline"

    def __init__(
        self, address_map: Optional[AddressMap] = None, degree: int = 1
    ) -> None:
        super().__init__(address_map)
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree

    def on_access(self, info: AccessInfo) -> List[int]:
        self.stats.add("accesses")
        return [info.block + k for k in range(1, self.degree + 1)]

    @property
    def storage_bits(self) -> int:
        return 0  # stateless
