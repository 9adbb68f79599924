"""Ablation drivers (DESIGN.md §5)."""

import pytest

from repro.experiments import ablations
from repro.experiments import common as excommon
from repro.sim.engine import SimulationParams, engine_tier_counters

PARAMS = SimulationParams(instructions_per_core=8000, warmup_instructions=2000)
WORKLOADS = ("streaming",)


@pytest.fixture(autouse=True)
def _clear_matrix_cache():
    excommon._MATRIX_CACHE.clear()
    yield
    excommon._MATRIX_CACHE.clear()


class TestUnifiedVsCascaded:
    def test_storage_halves(self):
        rows = ablations.run_unified_vs_cascaded(WORKLOADS, PARAMS)
        unified, cascaded = rows
        assert unified["design"].startswith("unified")
        assert unified["storage_kib"] < cascaded["storage_kib"] * 0.6

    def test_formatting(self):
        rows = ablations.run_unified_vs_cascaded(WORKLOADS, PARAMS)
        assert "unified" in ablations.format_unified_vs_cascaded(rows)


class TestVoteThreshold:
    def test_rows_cover_policies(self):
        rows = ablations.run_vote_threshold(
            WORKLOADS, thresholds=(0.2, 0.8), params=PARAMS
        )
        assert [row["policy"] for row in rows] == [
            "vote 20%", "vote 80%", "most recent",
        ]

    def test_metrics_bounded(self):
        rows = ablations.run_vote_threshold(
            WORKLOADS, thresholds=(0.2,), params=PARAMS,
            include_most_recent=False,
        )
        row = rows[0]
        assert 0 <= row["coverage"] <= 1
        assert 0 <= row["accuracy"] <= 1
        assert row["speedup"] > 0


class TestRegionSize:
    def test_geometry_column(self):
        rows = ablations.run_region_size(
            WORKLOADS, region_sizes=(1024, 2048), params=PARAMS
        )
        assert [row["blocks_per_region"] for row in rows] == [16, 32]
        assert all(row["speedup"] > 0 for row in rows)

    def test_runs_on_the_fast_loop(self, monkeypatch):
        """The ablation compiles its traces, as every other driver does,
        so no run falls back to the general loop."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)  # in-process
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        before = engine_tier_counters()["general"]
        ablations.run_region_size(
            WORKLOADS, region_sizes=(1024,), params=PARAMS
        )
        assert engine_tier_counters()["general"] == before


class TestTrainingLevel:
    def test_levels_present_and_functional(self):
        rows = ablations.run_training_level(WORKLOADS, PARAMS)
        assert [row["trained_at"] for row in rows] == ["llc", "l1"]
        assert all(row["speedup"] > 0 for row in rows)


class TestReplacementPolicy:
    def test_one_row_per_policy_but_lru_interface(self):
        from repro.memsys.replacement import available_replacements

        rows = ablations.run_replacement_policy(
            WORKLOADS,
            SimulationParams(instructions_per_core=3000, warmup_instructions=500),
        )
        assert [row["replacement"] for row in rows] == [
            name for name in available_replacements() if name != "lru-interface"
        ]
        assert all(row[pf] > 0 for row in rows for pf in ("bingo", "sms", "spp"))
        assert "replacement" in ablations.format_replacement_policy(rows)
