"""Aggregate metrics."""

import pytest

from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    gmean_speedup,
)
from repro.sim.results import CoreResult, SimResult


def result_with_throughput(thr: float) -> SimResult:
    return SimResult(
        workload="w", prefetcher="p",
        cores=[CoreResult(instructions=1000, cycles=1000.0 / thr)],
    )


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geometric_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0


class TestSpeedupAggregation:
    def make_matrix(self):
        return {
            "w1": {"none": result_with_throughput(1.0),
                   "bingo": result_with_throughput(2.0)},
            "w2": {"none": result_with_throughput(2.0),
                   "bingo": result_with_throughput(4.0)},
        }

    def test_gmean_speedup(self):
        assert gmean_speedup(self.make_matrix(), "bingo") == pytest.approx(2.0)
