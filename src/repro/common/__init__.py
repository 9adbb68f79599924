"""Shared low-level building blocks for the Bingo reproduction.

This subpackage deliberately has no dependency on the rest of ``repro``:
address arithmetic, footprint bit-vectors, generic LRU set-associative
tables, hash mixing, configuration dataclasses, and statistics counters.  Everything above (caches, prefetchers, the simulator) is built
from these primitives.
"""

from repro.common.addresses import AddressMap
from repro.common.bitvec import Footprint
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    SystemConfig,
)
from repro.common.stats import StatGroup
from repro.common.table import SetAssociativeTable

__all__ = [
    "AddressMap",
    "Footprint",
    "CacheConfig",
    "CoreConfig",
    "DramConfig",
    "SystemConfig",
    "StatGroup",
    "SetAssociativeTable",
]
