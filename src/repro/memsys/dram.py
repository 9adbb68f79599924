"""Banked, bandwidth-limited DRAM timing model.

Models the three effects the paper's evaluation depends on:

* **Zero-load latency** — 60 ns (Table I), i.e. 240 cycles at 4 GHz.
* **Row-buffer locality** — per-bank open row; a hit skips the activation
  and costs ``row_hit_ns``.  Spatial prefetchers fetching a whole footprint
  out of one row enjoy hits (Section II's energy/latency argument).
* **Bandwidth contention** — each 64 B transfer occupies its channel for
  ``block / (peak_bw / channels)`` seconds; requests queue behind the
  channel's ``busy_until``.  This is what punishes over-aggressive
  prefetching in the iso-degree study (Fig. 10).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import CoreConfig, DramConfig
from repro.common.hashing import mix64
from repro.common.stats import StatGroup


class DramModel:
    """A simple queued timing model over channels, banks, and row buffers.

    All times are core cycles.  ``access`` returns the *latency* of the
    request (completion − arrival) and advances the channel/bank state.
    """

    def __init__(
        self,
        config: DramConfig,
        core: CoreConfig,
        block_size: int = 64,
        stats: StatGroup = None,
    ) -> None:
        self.config = config
        self.core = core
        self.block_size = block_size
        self.stats = stats if stats is not None else StatGroup("dram")
        self._channel_busy: List[float] = [0.0] * config.channels
        # open_row[channel][bank] -> row id
        self._open_row: List[Dict[int, int]] = [
            {} for _ in range(config.channels)
        ]
        self._row_size = config.row_size_bytes
        # row -> (channel, bank): the route is a pure function of the row,
        # so each distinct row hashes once
        self._routes: Dict[int, Tuple[int, int]] = {}
        # fast-path counter cells: one access() call per LLC miss/prefetch
        self._reads = self.stats.counter("reads")
        self._row_hits = self.stats.counter("row_hits")
        self._row_misses = self.stats.counter("row_misses")
        self._prefetch_reads = self.stats.counter("prefetch_reads")
        self._queued = self.stats.counter("queued")
        self._queue_cycles = self.stats.counter("queue_cycles")
        self._writebacks = self.stats.counter("writebacks")
        # Latencies in cycles.
        self.miss_cycles = core.cycles(config.zero_load_ns)
        self.hit_cycles = core.cycles(config.row_hit_ns)
        per_channel_gbps = config.peak_bandwidth_gbps / config.channels
        seconds_per_block = block_size / (per_channel_gbps * 1e9)
        self.occupancy_cycles = seconds_per_block * core.frequency_ghz * 1e9

    # -- address mapping ----------------------------------------------------
    def _hash_route(self, row: int) -> Tuple[int, int]:
        """Hash a row to its (channel, bank) and memoise the answer.

        Channel/bank bits are hashed from the row address so that pages
        spread evenly; blocks within one DRAM row stay in one bank, which
        is what makes row-buffer hits possible for footprint bursts.
        """
        h = mix64(row)
        route = self._routes[row] = (
            h % self.config.channels,
            (h >> 8) % self.config.banks_per_channel,
        )
        return route

    def _route(self, block_address: int) -> tuple:
        """Map a block address to (channel, bank, row)."""
        row = block_address // self._row_size
        channel, bank = self._routes.get(row) or self._hash_route(row)
        return channel, bank, row

    # -- the access path ------------------------------------------------------
    def access(self, now: float, block_address: int, is_prefetch: bool = False) -> float:
        """Issue one block read at cycle ``now``; returns its latency in cycles."""
        row = block_address // self._row_size
        channel, bank = self._routes.get(row) or self._hash_route(row)
        start = self._channel_busy[channel]
        if not start > now:  # max(now, start)
            start = now
        queue_delay = start - now

        open_rows = self._open_row[channel]
        if open_rows.get(bank) == row:
            service = self.hit_cycles
            self._row_hits.value += 1
        else:
            service = self.miss_cycles
            open_rows[bank] = row
            self._row_misses.value += 1

        self._channel_busy[channel] = start + self.occupancy_cycles
        self._reads.value += 1
        if is_prefetch:
            self._prefetch_reads.value += 1
        if queue_delay > 0:
            self._queued.value += 1
            self._queue_cycles.value += queue_delay
        return queue_delay + service

    def writeback(self, now: float, block_address: int) -> None:
        """Account a dirty-block writeback: channel occupancy only.

        Writebacks are posted — nothing waits for them — but they consume
        the same channel bandwidth as reads, so under ``SystemConfig.
        model_writebacks`` they add realistic pressure on write-heavy
        workloads.
        """
        channel, bank, row = self._route(block_address)
        start = max(now, self._channel_busy[channel])
        self._channel_busy[channel] = start + self.occupancy_cycles
        if self._open_row[channel].get(bank) != row:
            self._open_row[channel][bank] = row
        self._writebacks.value += 1
