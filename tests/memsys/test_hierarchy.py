"""The memory hierarchy: access paths, prefetch accounting, latencies."""

from typing import List

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.memsys.hierarchy import (
    COVERED,
    L1_HIT,
    LATE,
    LLC_HIT,
    LLC_MISS,
    MERGED,
    MemoryHierarchy,
)
from repro.prefetchers.base import AccessInfo, Prefetcher
from repro.prefetchers.registry import available_prefetchers
from repro.sim.compile import compile_workload
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.workloads.registry import make_workload


def tiny_config(num_cores=1) -> SystemConfig:
    return SystemConfig(
        num_cores=num_cores,
        l1d=CacheConfig(size_bytes=1024, ways=2, hit_latency=4, mshr_entries=4),
        llc=CacheConfig(size_bytes=8192, ways=4, hit_latency=15, mshr_entries=16),
        physical_pages=1 << 16,
    )


class ScriptedPrefetcher(Prefetcher):
    """Issues a fixed delta list relative to each accessed block."""

    name = "scripted"

    def __init__(self, deltas, address_map=None):
        super().__init__(address_map)
        self.deltas = list(deltas)
        self.seen: List[AccessInfo] = []
        self.evictions: List[int] = []

    def on_access(self, info: AccessInfo) -> List[int]:
        self.seen.append(info)
        return [info.block + d for d in self.deltas]

    def on_eviction(self, block: int, was_used: bool) -> None:
        self.evictions.append(block)


class TestDemandPath:
    def test_first_access_misses_everywhere(self):
        hierarchy = MemoryHierarchy(tiny_config())
        latency, outcome = hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        assert outcome == LLC_MISS
        # L1 + LLC + DRAM zero-load.
        assert latency >= 4 + 15 + 240

    def test_repeat_hits_l1(self):
        hierarchy = MemoryHierarchy(tiny_config())
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        latency, outcome = hierarchy.access(0, pc=1, vaddr=0x1000, now=1000.0)
        assert outcome == L1_HIT
        assert latency == 4

    def test_llc_hit_after_l1_eviction(self):
        config = tiny_config()
        hierarchy = MemoryHierarchy(config)
        hierarchy.access(0, pc=1, vaddr=0x0, now=0.0)
        # Fill the L1 set of block 0 until it evicts (2 ways; L1 has 8 sets).
        l1_sets = config.l1d.sets
        for i in range(1, 3):
            hierarchy.access(0, pc=1, vaddr=i * l1_sets * 64, now=float(i * 1000))
        _, outcome = hierarchy.access(0, pc=1, vaddr=0x0, now=1e6)
        assert outcome == LLC_HIT

    def test_mshr_back_pressure_stalls_fifth_miss(self):
        hierarchy = MemoryHierarchy(tiny_config())  # 4 L1 MSHRs
        latencies = [
            hierarchy.access(0, pc=1, vaddr=i * 4096, now=0.0)[0]
            for i in range(5)
        ]
        mshr = hierarchy.stats.child("l1d0").child("mshr")
        assert mshr.get("allocations") == 5
        assert mshr.get("stalls") >= 1
        # The stalled miss waits for an earlier one to retire first.
        assert latencies[4] > latencies[0]

    def test_reaccess_while_in_flight_merges(self):
        """A block evicted from the L1 while its miss is still in flight
        merges into that miss when accessed again: it waits out the
        remainder, never reaches the LLC and does not refill the L1."""
        config = tiny_config()  # 2-way L1, 8 sets
        hierarchy = MemoryHierarchy(config)
        first_latency, _ = hierarchy.access(0, pc=1, vaddr=0x0, now=0.0)
        block = hierarchy.translator.translate(0, 0x0) >> 6
        # two more blocks of the same page and L1 set evict block 0
        for i in range(1, 3):
            hierarchy.access(0, pc=1, vaddr=i * config.l1d.sets * 64, now=float(i))
        l1 = hierarchy.l1ds[0]
        assert not l1.contains(block)
        llc = hierarchy.stats.child("llc")
        demand_before = llc.get("demand_accesses")
        fills_before = l1.stats.get("fills")

        latency, outcome = hierarchy.access(0, pc=1, vaddr=0x0, now=3.0)

        assert latency == (first_latency - 3.0) + config.l1d.hit_latency
        assert outcome == MERGED
        assert llc.get("demand_accesses") == demand_before
        assert l1.stats.get("fills") == fills_before
        assert not l1.contains(block)
        assert hierarchy.stats.child("l1d0").child("mshr").get("merges") == 1

    def test_write_counted(self):
        hierarchy = MemoryHierarchy(tiny_config())
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0, is_write=True)
        assert hierarchy.stats.child("llc").get("demand_writes") == 1


class TestPrefetchAccounting:
    def test_prefetch_fill_and_covered_hit(self):
        pf = ScriptedPrefetcher([1])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        llc = hierarchy.stats.child("llc")
        assert llc.get("prefetches_issued") == 1
        # Demand the prefetched next block much later (fill completed).
        _, outcome = hierarchy.access(0, pc=1, vaddr=0x1040, now=1e6)
        assert outcome == COVERED
        assert llc.get("covered") == 1

    def test_late_prefetch_pays_partial_latency(self):
        pf = ScriptedPrefetcher([1])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        latency, outcome = hierarchy.access(0, pc=1, vaddr=0x1040, now=20.0)
        assert outcome == LATE
        # Cheaper than a fresh DRAM access, dearer than an LLC hit.
        assert 15 < latency - 4 < 15 + 240 + 100

    def test_second_use_is_plain_hit(self):
        pf = ScriptedPrefetcher([1])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        hierarchy.access(0, pc=1, vaddr=0x1040, now=1e6)
        llc = hierarchy.stats.child("llc")
        # Evict from L1 to force a second LLC access to the same block.
        config = tiny_config()
        for i in range(1, 4):
            hierarchy.access(0, pc=1, vaddr=0x1040 + i * config.l1d.sets * 64,
                             now=1e6 + i)
        hierarchy.access(0, pc=1, vaddr=0x1040, now=2e6)
        assert llc.get("covered") == 1  # not double-counted

    def test_redundant_prefetch_dropped(self):
        pf = ScriptedPrefetcher([0])  # always targets the trigger block
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        llc = hierarchy.stats.child("llc")
        assert llc.get("prefetches_issued") == 0
        assert llc.get("redundant_prefetches") == 1

    def test_unused_evicted_prefetch_is_overprediction(self):
        pf = ScriptedPrefetcher([100])  # prefetch something never used
        config = tiny_config()
        hierarchy = MemoryHierarchy(config, prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        # Thrash the LLC so the prefetched block is evicted unused.
        for i in range(2, 600):
            hierarchy.access(0, pc=2, vaddr=i * 4096, now=float(i) * 1e3)
        assert hierarchy.stats.child("llc").get("overpredictions") >= 1

    def test_evictions_reach_prefetcher(self):
        pf = ScriptedPrefetcher([])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        for i in range(600):
            hierarchy.access(0, pc=1, vaddr=i * 4096, now=float(i) * 1e3)
        assert pf.evictions  # LLC capacity forced evictions

    def _thrash_two_cores(self, prefetchers) -> MemoryHierarchy:
        hierarchy = MemoryHierarchy(tiny_config(num_cores=2), prefetchers)
        for i in range(600):
            hierarchy.access(i % 2, pc=1, vaddr=i * 4096, now=float(i) * 1e3)
        return hierarchy

    def test_each_distinct_instance_sees_every_llc_eviction_once(self):
        """Two cores: distinct instances each see every LLC eviction, in
        the same order, and one shared instance sees each of them once."""
        first, second, shared = (ScriptedPrefetcher([]) for _ in range(3))
        hierarchy = self._thrash_two_cores([first, second])
        self._thrash_two_cores([shared, shared])
        evictions = hierarchy.stats.child("llc").get("evictions")
        assert len(first.evictions) == evictions > 0
        assert first.evictions == second.evictions == shared.evictions

    def test_finalize_counts_resident_unused(self):
        pf = ScriptedPrefetcher([5])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        hierarchy.finalize()
        assert hierarchy.stats.child("llc").get("prefetch_unused_at_end") == 1


class TestConfigValidation:
    def test_wrong_prefetcher_count_rejected(self):
        pf = ScriptedPrefetcher([])
        with pytest.raises(ValueError, match="prefetchers"):
            MemoryHierarchy(tiny_config(num_cores=2), prefetchers=[pf])

    def test_prefetcher_observes_only_llc_accesses(self):
        pf = ScriptedPrefetcher([])
        hierarchy = MemoryHierarchy(tiny_config(), prefetchers=[pf])
        hierarchy.access(0, pc=1, vaddr=0x1000, now=0.0)
        hierarchy.access(0, pc=1, vaddr=0x1000, now=1000.0)  # L1 hit
        assert len(pf.seen) == 1


@pytest.mark.parametrize(
    "prefetcher, replacement",
    [(name, "lru") for name in available_prefetchers()]
    + [("bingo", "arc"), ("bingo", "opt")],
)
def test_unused_at_end_matches_a_scan(prefetcher, replacement):
    """``finalize`` derives the resident unused prefetches from the
    whole-run counters (issued - covered - overpredictions); on an LLC
    small enough to evict prefetched blocks, a scan of its sets agrees."""
    system = SystemConfig(
        llc=CacheConfig(size_bytes=32 * 1024, ways=8, hit_latency=15,
                        mshr_entries=64),
    )
    engine = SimulationEngine(
        compile_workload(make_workload("mix3"), records_per_core=3500),
        prefetcher,
        system=system,
        params=SimulationParams(instructions_per_core=3000,
                                warmup_instructions=500),
        replacement=replacement,
    )
    engine.run()
    llc = engine.hierarchy.llc
    scanned = sum(
        state.prefetched and not state.used
        for entries in llc._sets
        for state in entries.values()
    )
    assert llc.stats.get("prefetch_unused_at_end") == scanned
    if llc.stats.get("prefetches_issued"):
        assert llc.stats.get("overpredictions") > 0
