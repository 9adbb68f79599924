"""The area model behind Fig. 9."""

import pytest

from repro.analysis.area import AreaModel
from repro.common.config import SystemConfig
from repro.core.bingo import BingoPrefetcher


class TestChipArea:
    def test_chip_area_composition(self):
        model = AreaModel()
        config = SystemConfig()
        # 4 cores x 10 + 8 MB x 2 + 20 uncore = 76 mm^2.
        assert model.chip_mm2(config) == pytest.approx(76.0)

    def test_prefetcher_area_scales_with_storage(self):
        model = AreaModel()
        one_mb_bits = 8 * 1024 * 1024
        assert model.prefetcher_mm2(one_mb_bits, num_cores=1) == pytest.approx(2.0)
        assert model.prefetcher_mm2(one_mb_bits, num_cores=4) == pytest.approx(8.0)


class TestPaperSanityNumbers:
    def test_bingo_metadata_under_6_percent_of_llc(self):
        """Section VI-A/D: Bingo's total metadata is <6 % of LLC area."""
        model = AreaModel()
        config = SystemConfig()
        bingo = BingoPrefetcher()
        llc_mm2 = (config.llc.size_bytes / 2**20) * model.llc_mm2_per_mb
        per_core = model.prefetcher_mm2(bingo.storage_bits, num_cores=1)
        assert per_core / llc_mm2 < 0.06

    def test_density_nearly_tracks_speedup_for_bingo(self):
        """Section VI-D: the density drop vs speedup is <1 % for Bingo."""
        model = AreaModel()
        config = SystemConfig()
        bingo = BingoPrefetcher()
        density = model.density_improvement(1.60, config, bingo.storage_bits)
        assert 1.55 < density < 1.60
        assert (1.60 - density) / 1.60 < 0.02


class TestDensityFormula:
    def test_zero_storage_keeps_speedup(self):
        model = AreaModel()
        assert model.density_improvement(1.5, SystemConfig(), 0) == 1.5

    def test_larger_metadata_lower_density(self):
        model = AreaModel()
        config = SystemConfig()
        small = model.density_improvement(1.5, config, 10_000)
        large = model.density_improvement(1.5, config, 10_000_000)
        assert large < small
