"""The silicon-area model behind performance density (Fig. 9).

The paper defines *performance density* as throughput per unit area and
evaluates it with CACTI-derived areas for "cores, caches, interconnect,
and memory channels, neglecting I/O".  We replace CACTI with a simple
analytical model calibrated to public 14 nm figures; only *relative*
areas matter for Fig. 9's ordering, and the paper's own sanity numbers —
Bingo's metadata is <6 % of LLC area and ~1 % of the chip — pin the
constants down well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig


@dataclass(frozen=True)
class AreaModel:
    """mm² figures for a 14 nm quad-core Xeon-class chip (Table I)."""

    core_mm2: float = 10.0  # one OoO core incl. private caches
    llc_mm2_per_mb: float = 2.0  # dense SRAM + tags
    uncore_mm2: float = 20.0  # interconnect + 2 memory channels
    #: prefetcher metadata is SRAM of the same density as the LLC
    metadata_mm2_per_mb: float = 2.0

    def chip_mm2(self, config: SystemConfig) -> float:
        """Baseline chip area (no prefetcher)."""
        llc_mb = config.llc.size_bytes / (1024 * 1024)
        return (
            config.num_cores * self.core_mm2
            + llc_mb * self.llc_mm2_per_mb
            + self.uncore_mm2
        )

    def prefetcher_mm2(self, storage_bits: int, num_cores: int) -> float:
        """Total metadata area: one private prefetcher per core."""
        storage_mb = storage_bits / 8 / (1024 * 1024)
        return num_cores * storage_mb * self.metadata_mm2_per_mb

    def density_improvement(
        self,
        speedup: float,
        config: SystemConfig,
        prefetcher_storage_bits: int,
    ) -> float:
        """Fig. 9's metric: density with prefetcher / density without.

        Equals ``speedup / (1 + prefetcher_area / chip_area)`` — a
        prefetcher earns its area only if the speedup beats the area tax.
        """
        chip = self.chip_mm2(config)
        extra = self.prefetcher_mm2(prefetcher_storage_bits, config.num_cores)
        return speedup / (1 + extra / chip)
