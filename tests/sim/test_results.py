"""Result metrics: the paper's definitions."""

import pytest

from repro.sim.results import (
    CoreResult,
    SimResult,
    speedup,
)


def make_result(**overrides) -> SimResult:
    defaults = dict(
        workload="w",
        prefetcher="p",
        cores=[CoreResult(instructions=1000, cycles=500.0)],
        demand_misses=40,
        covered=60,
        prefetches_issued=100,
        overpredictions=20,
    )
    defaults.update(overrides)
    return SimResult(**defaults)


class TestThroughput:
    def test_ipc(self):
        assert CoreResult(instructions=100, cycles=50.0).ipc == 2.0

    def test_zero_cycles(self):
        assert CoreResult(instructions=0, cycles=0.0).ipc == 0.0

    def test_throughput_sums_cores(self):
        result = make_result(
            cores=[
                CoreResult(instructions=100, cycles=100.0),
                CoreResult(instructions=100, cycles=50.0),
            ]
        )
        assert result.throughput == pytest.approx(3.0)
        assert result.instructions == 200


class TestPaperMetrics:
    def test_coverage(self):
        # 60 covered of 100 would-be misses.
        assert make_result().coverage == pytest.approx(0.60)

    def test_accuracy(self):
        assert make_result().accuracy == pytest.approx(0.60)

    def test_accuracy_clamped_at_one(self):
        result = make_result(covered=150, prefetches_issued=100)
        assert result.accuracy == 1.0

    def test_accuracy_zero_issued(self):
        assert make_result(prefetches_issued=0, covered=0).accuracy == 0.0

    def test_overprediction_normalised_to_baseline_misses(self):
        # Footnote 9: normalised to baseline misses, not to prefetch count.
        assert make_result().overprediction == pytest.approx(0.20)

    def test_mpki(self):
        assert make_result().mpki == pytest.approx(40.0)

    def test_summary_keys(self):
        summary = make_result().summary()
        assert {"throughput", "mpki", "coverage", "accuracy",
                "overprediction", "prefetches_issued"} <= set(summary)


class TestSpeedup:
    def test_speedup_ratio(self):
        base = make_result(cores=[CoreResult(1000, 1000.0)])
        fast = make_result(cores=[CoreResult(1000, 500.0)])
        assert speedup(fast, base) == pytest.approx(2.0)

    def test_zero_baseline_rejected(self):
        base = make_result(cores=[CoreResult(0, 0.0)])
        with pytest.raises(ValueError):
            speedup(make_result(), base)


class TestEnergyMetrics:
    def test_row_activations(self):
        result = make_result(dram_reads=100, dram_row_hits=60)
        assert result.row_activations == 40
