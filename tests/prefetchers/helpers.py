"""Shared helpers for feeding prefetchers synthetic access streams."""

from typing import Iterable, List

from repro.prefetchers.base import AccessInfo, Prefetcher


def feed(pf: Prefetcher, blocks: Iterable[int], pc: int = 0x400) -> List[int]:
    """Feed block accesses; returns every prefetched block, in order."""
    out: List[int] = []
    for block in blocks:
        out.extend(pf.on_access(AccessInfo(pc=pc, block=block)))
    return out


def feed_one(pf: Prefetcher, block: int, pc: int = 0x400) -> List[int]:
    return feed(pf, [block], pc=pc)
