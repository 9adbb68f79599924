"""The stress suite's generators: skew and oscillation.

These workloads exist to make replacement policies disagree, so their
tests pin the *shapes* that do the disagreeing: Zipf's head really is
hot, and the oscillator really alternates hot-set reuse with a scan.
One end-to-end test drives each through the real engine and the trace
conformance machinery.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.common.config import small_system
from repro.sim.runner import run_simulation
from repro.workloads.registry import (
    STRESS_WORKLOAD_NAMES,
    make_workload,
)
from repro.workloads.stress import oscillating_stream, zipf_stream, zipf_weights

BLOCK = 64


def mem_addresses(stream, n):
    """First ``n`` memory-reference addresses (gaps skipped)."""
    out = []
    for record in stream:
        if record.is_mem:
            out.append(record.address)
            if len(out) == n:
                return out
    raise AssertionError("stream ended early")


class TestZipf:
    def test_weights_are_cumulative_and_skewed(self):
        weights = zipf_weights(100, alpha=1.1)
        assert len(weights) == 100
        assert weights == sorted(weights)
        # rank 1 alone outweighs the tail half of the population
        tail_mass = weights[-1] - weights[49]
        assert weights[0] > tail_mass

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="population"):
            zipf_weights(0, alpha=1.1)
        with pytest.raises(ValueError, match="alpha"):
            zipf_weights(10, alpha=0.0)

    def test_head_dominates_stream(self):
        """The hottest few blocks must carry a disproportionate share of
        references — that skew is the whole point of the workload."""
        rng = random.Random(3)
        addrs = mem_addresses(
            zipf_stream(rng, pc=0x1000, base=0, footprint_bytes=64 * 1024),
            8000,
        )
        counts = Counter(addrs)
        population = 64 * 1024 // BLOCK  # 1024 blocks
        top16 = sum(count for _, count in counts.most_common(16))
        # uniform would give 16/1024 ≈ 1.6%; Zipf(1.1) gives far more
        assert top16 / len(addrs) > 0.25
        assert len(counts) > 64  # but the tail is still touched

    def test_placement_scatters_the_head(self):
        """Popularity must not be address-sorted: the hottest block is
        (almost surely) not the first block of the arena."""
        rng = random.Random(4)
        addrs = mem_addresses(
            zipf_stream(rng, pc=0x1000, base=0, footprint_bytes=256 * 1024),
            4000,
        )
        hottest = Counter(addrs).most_common(1)[0][0]
        assert hottest != 0

    def test_deterministic_in_seed(self):
        a = mem_addresses(
            zipf_stream(random.Random(9), 0x1000, 0, 64 * 1024), 500
        )
        b = mem_addresses(
            zipf_stream(random.Random(9), 0x1000, 0, 64 * 1024), 500
        )
        assert a == b


class TestOscillate:
    def test_alternates_hot_and_scan_every_period(self):
        rng = random.Random(0)
        stream = oscillating_stream(
            rng, pc=0x10, hot_base=0, hot_bytes=4 * 1024,
            scan_base=0x100000, scan_bytes=64 * 1024, period_refs=50,
        )
        addrs = mem_addresses(stream, 50 * 6)
        for half in range(6):
            window = addrs[half * 50:(half + 1) * 50]
            in_scan = [a >= 0x100000 for a in window]
            assert all(in_scan) == (half % 2 == 1)
            assert any(in_scan) == (half % 2 == 1)

    def test_scan_resumes_across_periods(self):
        """The scan is one long circular walk, not a restart: the second
        scan half continues where the first left off."""
        rng = random.Random(0)
        stream = oscillating_stream(
            rng, pc=0x10, hot_base=0, hot_bytes=4 * 1024,
            scan_base=0x100000, scan_bytes=1024 * 1024, period_refs=50,
        )
        addrs = mem_addresses(stream, 50 * 4)
        first_scan = addrs[50:100]
        second_scan = addrs[150:200]
        assert min(second_scan) > max(first_scan)

    def test_hot_set_repeats_across_periods(self):
        rng = random.Random(0)
        stream = oscillating_stream(
            rng, pc=0x10, hot_base=0, hot_bytes=1024,  # 16 blocks
            scan_base=0x100000, scan_bytes=64 * 1024, period_refs=100,
        )
        addrs = mem_addresses(stream, 100 * 3)
        hot1 = set(addrs[:100])
        hot2 = set(addrs[200:300])
        assert hot1 and hot1 == hot2  # same 16 blocks both periods

    def test_period_validation(self):
        with pytest.raises(ValueError, match="period_refs"):
            next(
                oscillating_stream(
                    random.Random(0), 0x10, 0, 1024, 0x100000, 1024,
                    period_refs=0,
                )
            )


class TestEndToEnd:
    @pytest.mark.parametrize("name", STRESS_WORKLOAD_NAMES)
    def test_simulates_under_every_tier_surface(self, name):
        """Each stress workload runs through the real engine and its
        trace stream satisfies the conformance replay identity."""
        from repro.obs.sinks import RecordingSink, replay_llc_counters

        sink = RecordingSink()
        result = run_simulation(
            name,
            prefetcher="bingo",
            sink=sink,
            system=small_system(num_cores=4),
            instructions_per_core=3000,
            warmup_instructions=500,
            seed=11,
            scale=0.02,
        )
        llc = result.raw_stats["memsys"]["llc"]
        assert llc["demand_accesses"] > 0
        replayed = replay_llc_counters(sink.events)
        assert replayed["demand_accesses"] == llc["demand_accesses"]
        assert replayed["demand_misses"] == llc["demand_misses"]

    @pytest.mark.parametrize("name", STRESS_WORKLOAD_NAMES)
    def test_streams_are_deterministic_and_decorrelated(self, name):
        a = make_workload(name, seed=7, scale=0.05)
        b = make_workload(name, seed=7, scale=0.05)
        assert mem_addresses(a.core_stream(0), 200) == mem_addresses(
            b.core_stream(0), 200
        )
        assert mem_addresses(a.core_stream(0), 200) != mem_addresses(
            a.core_stream(1), 200
        )

    def test_policies_disagree_on_oscillate(self):
        """The suite's raison d'être: on the scan workload the zoo must
        actually separate (LRU churns, the scan-resistant policies and
        OPT hold the hot set) — checked in the standalone replay where
        the effect is undiluted."""
        from tests.memsys.replay_harness import replay_trace

        workload = make_workload("oscillate", seed=7, scale=0.05)
        blocks = [
            a // BLOCK for a in mem_addresses(workload.core_stream(0), 12000)
        ]
        misses = {
            name: replay_trace(blocks, num_sets=64, ways=4, policy=name).misses
            for name in ("lru", "2q", "arc", "lfu", "opt")
        }
        assert misses["opt"] == min(misses.values())
        assert len(set(misses.values())) > 1  # not all policies tie
