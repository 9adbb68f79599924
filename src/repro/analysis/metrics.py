"""Aggregate metrics used by the figures.

The paper reports per-workload bars plus a geometric-mean bar for
speedups (Fig. 8) and arithmetic averages for coverage/accuracy-style
fractions (Figs. 2, 3, 7).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

from repro.sim.results import SimResult, speedup


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's aggregate for speedups (Fig. 8 GMean)."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of no values")
    return sum(values) / len(values)


def gmean_speedup(
    results: Dict[str, Dict[str, SimResult]], prefetcher: str
) -> float:
    """Geometric-mean speedup of one prefetcher across all workloads."""
    per_workload = [
        speedup(runs[prefetcher], runs["none"]) for runs in results.values()
    ]
    return geometric_mean(per_workload)
