"""The Markov temporal prefetcher — and the Zeus validation story."""

import pytest

from repro.prefetchers.markov import MarkovPrefetcher

from tests.prefetchers.helpers import feed


class TestMechanics:
    def test_learns_pair_succession(self):
        pf = MarkovPrefetcher(degree=1)
        feed(pf, [10, 99])  # 99 followed 10 once
        prefetched = feed(pf, [10])
        assert prefetched == [99]

    def test_multi_step_chain(self):
        pf = MarkovPrefetcher(degree=3)
        feed(pf, [1, 2, 3, 4] * 3)
        prefetched = feed(pf, [1])
        assert prefetched[:3] == [2, 3, 4]

    def test_strongest_successor_wins(self):
        pf = MarkovPrefetcher(degree=1, successors=2)
        feed(pf, [5, 7, 5, 7, 5, 8])  # 7 followed 5 twice, 8 once
        assert feed(pf, [5]) == [7]

    def test_capacity_bounded(self):
        pf = MarkovPrefetcher(entries=4)
        feed(pf, list(range(100)))
        assert len(pf._table) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovPrefetcher(entries=0)

    def test_temporal_metadata_is_expensive(self):
        """Section II: temporal prefetchers store full addresses and need
        far more metadata than spatial footprints for the same reach."""
        from repro.core.bingo import BingoPrefetcher

        assert MarkovPrefetcher().storage_bits > 5 * BingoPrefetcher().storage_bits


class TestZeusStory:
    """Validates the workload modelling: a temporally-repeating,
    spatially-unstructured miss sequence (Zeus's character, Section VI-C)
    is coverable by a temporal prefetcher and opaque to Bingo.

    Uses a short-lap temporal loop so the sequence repeats several times
    within a test-sized run (the registry's Zeus laps are much longer
    than a unit-test window)."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.common.config import CacheConfig, SystemConfig
        from repro.sim.runner import run_simulation
        from repro.workloads import primitives as prim
        from repro.workloads.base import homogeneous

        def stream(rng, core_id):
            return prim.temporal_loop(
                rng, pc=0x900, base=0x1000_0000,
                footprint_bytes=8 * 1024 * 1024,  # sparse over 8 MB
                sequence_length=600,  # short laps: repeats within the run
                gap=10, dependent=True,
            )

        workload = homogeneous("mini_zeus", stream, num_cores=4)
        system = SystemConfig(
            num_cores=4,
            l1d=CacheConfig(size_bytes=8 * 1024, ways=4, hit_latency=4,
                            mshr_entries=8),
            llc=CacheConfig(size_bytes=128 * 1024, ways=16, hit_latency=15,
                            mshr_entries=32),
        )
        common = dict(system=system, instructions_per_core=30_000,
                      warmup_instructions=10_000)
        return {
            name: run_simulation(workload, prefetcher=name, **common)
            for name in ("none", "bingo", "markov")
        }

    def test_temporal_covers_what_spatial_cannot(self, runs):
        assert runs["markov"].coverage > runs["bingo"].coverage + 0.2

    def test_temporal_speeds_it_up(self, runs):
        from repro.sim.results import speedup

        assert speedup(runs["markov"], runs["none"]) > 1.2
        assert speedup(runs["markov"], runs["none"]) > speedup(
            runs["bingo"], runs["none"]
        )
