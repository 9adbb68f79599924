"""DRAM model: latencies, row-buffer behaviour, bandwidth queueing."""

import pytest

from repro.common.config import CoreConfig, DramConfig
from repro.memsys.dram import DramModel


def make_dram(**overrides) -> DramModel:
    return DramModel(DramConfig(**overrides), CoreConfig())


class TestLatencies:
    def test_zero_load_latency_matches_table1(self):
        dram = make_dram()
        # 60 ns at 4 GHz = 240 cycles.
        assert dram.miss_cycles == 240
        latency = dram.access(now=0.0, block_address=0)
        assert latency == pytest.approx(240.0)

    def test_row_hit_is_cheaper(self):
        dram = make_dram()
        first = dram.access(now=0.0, block_address=0)
        # Far-future access to the same row: no queueing, open row.
        second = dram.access(now=1e6, block_address=64)
        assert second < first
        assert second == pytest.approx(dram.hit_cycles)

    def test_row_conflict_pays_full_latency(self):
        dram = make_dram(banks_per_channel=1, channels=1)
        dram.access(now=0.0, block_address=0)
        other_row = dram.config.row_size_bytes * 2
        latency = dram.access(now=1e6, block_address=other_row)
        assert latency == pytest.approx(dram.miss_cycles)


class TestBandwidth:
    def test_back_to_back_requests_queue(self):
        dram = make_dram(channels=1)
        dram.access(now=0.0, block_address=0)
        second = dram.access(now=0.0, block_address=64)
        # Same open row (hit latency) plus the first transfer's occupancy.
        assert second == pytest.approx(dram.hit_cycles + dram.occupancy_cycles)
        assert dram.stats.get("queued") == 1

    def test_spaced_requests_do_not_queue(self):
        dram = make_dram(channels=1)
        dram.access(now=0.0, block_address=0)
        dram.access(now=1000.0, block_address=64)
        assert dram.stats.get("queued") == 0

    def test_occupancy_matches_peak_bandwidth(self):
        dram = make_dram()
        # 64 B / (18.75 GB/s per channel) at 4 GHz ~= 13.65 cycles.
        assert dram.occupancy_cycles == pytest.approx(13.653, rel=1e-3)


class TestStats:
    def test_prefetch_reads_counted_separately(self):
        dram = make_dram()
        dram.access(now=0.0, block_address=0, is_prefetch=True)
        dram.access(now=0.0, block_address=1 << 20)
        assert dram.stats.get("reads") == 2
        assert dram.stats.get("prefetch_reads") == 1


class TestRouting:
    def test_same_row_same_bank(self):
        dram = make_dram()
        a = dram._route(0)
        b = dram._route(64)
        assert a == b  # blocks of one row share channel/bank/row

    def test_routing_is_deterministic(self):
        dram = make_dram()
        assert dram._route(123456) == dram._route(123456)

    def test_rows_spread_over_channels(self):
        dram = make_dram()
        channels = {
            dram._route(row * 4096)[0] for row in range(64)
        }
        assert channels == {0, 1}
