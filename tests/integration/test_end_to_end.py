"""End-to-end behavioural checks on scaled-down runs.

These assert the *directions* the paper reports, on short, fast runs:
spatial prefetching helps footprint-structured workloads, does little for
temporally-correlated ones, and Bingo's dual event beats the single-event
SMS on revisit-heavy patterns.
"""

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.sim.results import speedup
from repro.sim.runner import run_simulation
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

SYSTEM = SystemConfig(
    num_cores=4,
    l1d=CacheConfig(size_bytes=8 * 1024, ways=4, hit_latency=4, mshr_entries=8),
    llc=CacheConfig(size_bytes=256 * 1024, ways=16, hit_latency=15,
                    mshr_entries=32),
)
SCALE = 0.03125  # 1/32: working sets scaled with the 256 KB LLC
RUN = dict(system=SYSTEM, instructions_per_core=30_000,
           warmup_instructions=10_000, scale=SCALE)


def run(workload, prefetcher, **kwargs):
    params = dict(RUN)
    params.update(kwargs)
    return run_simulation(workload, prefetcher=prefetcher, **params)


@pytest.fixture(scope="module")
def serving_runs():
    return {
        name: run("data_serving", name) for name in ("none", "bingo", "sms")
    }


class TestSpatialWorkloadsBenefit:
    def test_bingo_covers_data_serving(self, serving_runs):
        assert serving_runs["bingo"].coverage > 0.4

    def test_bingo_speeds_up_data_serving(self, serving_runs):
        assert speedup(serving_runs["bingo"], serving_runs["none"]) > 1.3

    def test_bingo_reduces_misses_vs_actual_baseline(self, serving_runs):
        assert (
            serving_runs["bingo"].demand_misses
            < serving_runs["none"].demand_misses
        )

    def test_em3d_gains(self):
        base = run("em3d", "none")
        bingo = run("em3d", "bingo")
        assert speedup(bingo, base) > 1.2
        # At this 1/32 test scale the history sees few region generations;
        # coverage is well below the experiment-scale ~0.7 but clearly live.
        assert bingo.coverage > 0.2


class TestTemporalWorkloadResists:
    def test_zeus_barely_moves(self):
        base = run("zeus", "none")
        bingo = run("zeus", "bingo")
        assert 0.85 < speedup(bingo, base) < 1.25
        assert bingo.coverage < 0.35


class TestBingoVsSms:
    def test_bingo_covers_more_than_sms(self, serving_runs):
        """Section VI-B: the dual event matches more triggers than the
        single PC+Offset event, so coverage is strictly better."""
        assert serving_runs["bingo"].coverage > serving_runs["sms"].coverage

    def test_bingo_outperforms_sms(self, serving_runs):
        baseline = serving_runs["none"]
        assert speedup(serving_runs["bingo"], baseline) > speedup(
            serving_runs["sms"], baseline
        )


class TestAllPrefetchersRunEverywhere:
    @pytest.mark.parametrize("prefetcher", ["bop", "spp", "vldp", "ampm",
                                            "sms", "bingo"])
    def test_streaming_under_every_prefetcher(self, prefetcher):
        result = run("streaming", prefetcher)
        assert result.instructions == 80_000
        assert result.prefetches_issued >= 0

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_bingo_on_every_workload(self, workload):
        result = run(workload, "bingo", instructions_per_core=10_000,
                     warmup_instructions=2_000)
        assert result.instructions == 32_000


class TestBandwidthAccounting:
    def test_prefetching_adds_dram_traffic(self):
        base = run("streaming", "none")
        pf = run("streaming", "nextline")
        assert pf.dram_reads > base.demand_misses * 0.9

    def test_row_hit_ratio_improves_with_footprint_prefetching(self):
        base = run("em3d", "none")
        bingo = run("em3d", "bingo")
        base_ratio = base.dram_row_hits / max(1, base.dram_reads)
        bingo_ratio = bingo.dram_row_hits / max(1, bingo.dram_reads)
        assert bingo_ratio > base_ratio


class TestEnergyProxy:
    def test_bingo_cuts_activations_per_block_fetched(self):
        """Section II's energy argument: footprint prefetching turns row
        misses into row hits, so activations per fetched block drop."""
        base = run("em3d", "none")
        bingo = run("em3d", "bingo")
        base_rate = base.row_activations / max(1, base.dram_reads)
        bingo_rate = bingo.row_activations / max(1, bingo.dram_reads)
        assert bingo_rate < base_rate

    def test_activation_metric_consistent(self):
        result = run("streaming", "bingo")
        assert 0 <= result.row_activations <= result.dram_reads
