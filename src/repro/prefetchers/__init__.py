"""The prefetcher zoo: every baseline the paper compares against.

All prefetchers implement :class:`repro.prefetchers.base.Prefetcher` and
attach to the shared LLC (one private instance per core, as in Section V).
Bingo itself lives in :mod:`repro.core` because it is the paper's primary
contribution; it registers here alongside the baselines.

SMS (:mod:`repro.prefetchers.sms`) and SFP are built on Bingo's region
front end in :mod:`repro.core`, which imports this package's base
class, so this package does not import them eagerly: ``make_prefetcher``
loads them on first use.
"""

from repro.prefetchers.ampm import AmpmPrefetcher
from repro.prefetchers.base import AccessInfo, Prefetcher
from repro.prefetchers.bop import BestOffsetPrefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.registry import available_prefetchers, make_prefetcher
from repro.prefetchers.sandbox import SandboxPrefetcher
from repro.prefetchers.spp import SppPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.prefetchers.vldp import VldpPrefetcher

__all__ = [
    "AccessInfo",
    "Prefetcher",
    "AmpmPrefetcher",
    "BestOffsetPrefetcher",
    "NextLinePrefetcher",
    "SandboxPrefetcher",
    "SppPrefetcher",
    "StridePrefetcher",
    "VldpPrefetcher",
    "available_prefetchers",
    "make_prefetcher",
]
