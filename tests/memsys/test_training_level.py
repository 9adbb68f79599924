"""The train_at switch: L1-trained vs LLC-trained prefetchers."""

from typing import List

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.memsys.hierarchy import COVERED, MemoryHierarchy
from repro.prefetchers.base import AccessInfo, Prefetcher


def tiny_config() -> SystemConfig:
    return SystemConfig(
        num_cores=1,
        l1d=CacheConfig(size_bytes=512, ways=2, hit_latency=4, mshr_entries=4),
        llc=CacheConfig(size_bytes=8192, ways=4, hit_latency=15,
                        mshr_entries=16),
        physical_pages=1 << 16,
    )


class Recorder(Prefetcher):
    name = "recorder"

    def __init__(self, address_map=None):
        super().__init__(address_map)
        self.seen: List[AccessInfo] = []
        self.evictions: List[int] = []

    def on_access(self, info):
        self.seen.append(info)
        return []

    def on_eviction(self, block, was_used):
        self.evictions.append(block)


def test_rejects_unknown_level():
    with pytest.raises(ValueError, match="train_at"):
        MemoryHierarchy(tiny_config(), train_at="l2")


def test_l1_training_sees_every_access():
    pf = Recorder()
    hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf], train_at="l1")
    hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
    hierarchy.access(0, pc=1, vaddr=0x1000, now=100.0)  # L1 hit
    assert len(pf.seen) == 2


def test_llc_training_is_l1_filtered():
    pf = Recorder()
    hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf], train_at="llc")
    hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
    hierarchy.access(0, pc=1, vaddr=0x1000, now=100.0)  # L1 hit: unseen
    assert len(pf.seen) == 1


def test_l1_evictions_notify_in_l1_mode():
    pf = Recorder()
    hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf], train_at="l1")
    # The tiny L1 (8 blocks) churns quickly.
    for i in range(32):
        hierarchy.access(0, pc=1, vaddr=i * 4096, now=float(i) * 1000)
    assert pf.evictions


def test_l1_mode_prefetches_fill_the_llc():
    class NextLine(Recorder):
        def on_access(self, info):
            super().on_access(info)
            return [info.block + 1]

    pf = NextLine()
    hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf], train_at="l1")
    hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
    assert hierarchy.stats.child("llc").get("prefetches_issued") == 1
    # The prefetched block is an LLC hit later, not an L1 hit.
    _, outcome = hierarchy.access(0, pc=1, vaddr=0x1040, now=1e6)
    assert outcome == COVERED
