"""The memory-system substrate: caches, DRAM, translation, hierarchy.

This is the stand-in for the paper's ChampSim infrastructure: a fast,
functional-with-timing model of a multi-core hierarchy (private L1Ds over a
shared LLC over banked, bandwidth-limited DRAM).  Prefetchers attach at the
LLC exactly as in Section V of the paper.  The LLC's replacement policy
comes from the zoo in :mod:`repro.memsys.replacement`; the standalone
replay harness that proves the zoo's properties lives with its tests.
"""

from repro.memsys.cache import BlockState, Cache
from repro.memsys.dram import DramModel
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.mshr import MshrFile
from repro.memsys.replacement import (
    ReplacementError,
    ReplacementPolicy,
    available_replacements,
    make_replacement,
)
from repro.memsys.translation import RandomFirstTouchTranslator

__all__ = [
    "BlockState",
    "Cache",
    "DramModel",
    "MemoryHierarchy",
    "MshrFile",
    "RandomFirstTouchTranslator",
    "ReplacementError",
    "ReplacementPolicy",
    "available_replacements",
    "make_replacement",
]
