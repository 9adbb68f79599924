"""Simulation results and the paper's derived metrics.

Metric definitions follow the paper exactly:

* **coverage** (Fig. 7) — fraction of would-be misses eliminated:
  ``covered / (covered + remaining demand misses)``.  A *covered miss* is
  a demand access served by a prefetched block's first use (including
  late in-flight prefetches, which still hide most of the latency).
* **accuracy** (Figs. 2/3) — fraction of issued prefetches that were used
  before eviction: ``covered / prefetches issued``.
* **overprediction** (Fig. 7) — incorrect prefetches *normalised to the
  baseline miss count* (footnote 9: not the same as 1 − accuracy):
  ``unused evicted prefetches / (covered + remaining demand misses)``.
* **speedup** (Fig. 8) — system throughput (sum of per-core IPCs for the
  measured instruction window) relative to a no-prefetcher baseline run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List


@dataclass
class CoreResult:
    """One core's measured window."""

    instructions: int
    cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SimResult:
    """Everything one simulation run produced (measurement window only)."""

    workload: str
    prefetcher: str
    cores: List[CoreResult]
    # LLC counters (deltas over the measurement window)
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    covered: int = 0
    late_covered: int = 0
    prefetches_issued: int = 0
    redundant_prefetches: int = 0
    overpredictions: int = 0
    prefetch_unused_at_end: int = 0
    dram_reads: int = 0
    dram_row_hits: int = 0
    prefetcher_storage_bits: int = 0
    #: measurement-window deltas of the prefetcher's own counters
    #: (triggers, lookup_hits, commits, ...), aggregated over cores
    prefetcher_counters: Dict[str, float] = field(default_factory=dict)
    #: cumulative stat samples taken every ``timeline_interval`` retired
    #: instructions (see :mod:`repro.obs.timeline`); empty when disabled
    timeline: List[Dict[str, object]] = field(default_factory=list)
    raw_stats: Dict[str, object] = field(default_factory=dict)

    def prefetcher_ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two prefetcher counters (e.g. match probability)."""
        denom = self.prefetcher_counters.get(denominator, 0)
        return self.prefetcher_counters.get(numerator, 0) / denom if denom else 0.0

    # -- throughput ---------------------------------------------------------
    @property
    def instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def throughput(self) -> float:
        """System throughput: sum of per-core IPCs."""
        return sum(core.ipc for core in self.cores)

    # -- the paper's metrics ----------------------------------------------------
    @property
    def baseline_miss_estimate(self) -> int:
        """Would-be misses without prefetching: covered + still-missing."""
        return self.covered + self.demand_misses

    @property
    def coverage(self) -> float:
        base = self.baseline_miss_estimate
        return self.covered / base if base else 0.0

    @property
    def accuracy(self) -> float:
        """Used-before-eviction fraction of issued prefetches.

        Clamped to 1.0: prefetches issued during warm-up can be consumed
        during measurement, so the windowed ratio can slightly exceed one
        on mostly-resident workloads.
        """
        issued = self.prefetches_issued
        return min(1.0, self.covered / issued) if issued else 0.0

    @property
    def overprediction(self) -> float:
        base = self.baseline_miss_estimate
        return self.overpredictions / base if base else 0.0

    @property
    def row_activations(self) -> int:
        """DRAM row activations — the energy proxy of Section II.

        An accurate spatial prefetcher fetches a whole footprint out of
        one open row, so activations *per block fetched* drop even as
        total traffic rises (the BuMP argument the paper cites).
        """
        return self.dram_reads - self.dram_row_hits

    @property
    def mpki(self) -> float:
        """LLC demand misses per kilo-instruction (Table II's metric)."""
        instr = self.instructions
        return self.demand_misses / instr * 1000 if instr else 0.0

    def timeline_curves(self) -> List[Dict[str, float]]:
        """Per-interval IPC/MPKI/coverage/accuracy rows (whole run).

        Empty unless the run sampled a timeline
        (``ObservabilityConfig(timeline_interval=N)``).  Intervals span
        warm-up and measurement alike — that is the point: the curves
        show *phases*, where the headline metrics show the window.
        """
        from repro.obs.timeline import timeline_curves

        return timeline_curves(self.timeline)

    def summary(self) -> Dict[str, float]:
        """The numbers every report prints, in one flat dict."""
        return {
            "throughput": self.throughput,
            "mpki": self.mpki,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "overprediction": self.overprediction,
            "prefetches_issued": float(self.prefetches_issued),
        }

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible deep copy (the executor's cache format).

        ``json.dump``/``load`` round-trips Python floats exactly (repr
        based), so a cached result is bit-identical to the original run.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        payload = {key: value for key, value in data.items() if key in known}
        payload["cores"] = [
            CoreResult(**core) for core in payload.get("cores", [])
        ]
        return cls(**payload)


def speedup(result: SimResult, baseline: SimResult) -> float:
    """Throughput of ``result`` over ``baseline`` (Fig. 8's y-axis + 1)."""
    if baseline.throughput == 0:
        raise ValueError("baseline run has zero throughput")
    return result.throughput / baseline.throughput
