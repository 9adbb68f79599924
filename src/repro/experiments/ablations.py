"""Ablations of Bingo's design choices (DESIGN.md §5).

Not figures from the paper, but the studies a reviewer would ask for:

* **unified vs cascaded storage** — same prediction behaviour, very
  different metadata cost (the Section IV storage claim, quantified);
* **vote threshold** — the 20 % multi-match heuristic vs alternatives,
  including the most-recent-match policy the paper also evaluated;
* **region size** — footprints over 1 KB / 2 KB / 4 KB regions;
* **LLC replacement** — Bingo's lead over SMS and SPP under every
  registered replacement policy, not only the paper's LRU.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, geometric_mean
from repro.analysis.report import format_table
from repro.common.addresses import AddressMap
from repro.core.bingo import BingoPrefetcher
from repro.core.events import EventKind
from repro.core.multi_event import MultiEventSpatialPrefetcher
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    cached_run,
    cached_runs,
    default_params,
    experiment_job,
    experiment_system,
)
from repro.sim.engine import SimulationParams
from repro.sim.results import speedup

#: a representative cross-section: one per workload family
DEFAULT_ABLATION_WORKLOADS = ("data_serving", "streaming", "em3d", "mix1")


def run_unified_vs_cascaded(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """Bingo's unified table vs the naive dual-table cascade."""
    params = params if params is not None else default_params()
    unified_bits = BingoPrefetcher().storage_bits
    cascaded_bits = MultiEventSpatialPrefetcher(
        kinds=(EventKind.PC_ADDRESS, EventKind.PC_OFFSET)
    ).storage_bits
    rows: List[Dict[str, object]] = []
    for design, prefetcher, kwargs, bits in (
        ("unified (Bingo)", "bingo", {}, unified_bits),
        (
            "cascaded dual-table",
            "multi-event",
            {"kinds": (EventKind.PC_ADDRESS, EventKind.PC_OFFSET)},
            cascaded_bits,
        ),
    ):
        speedups = []
        coverages = []
        for workload in workloads:
            baseline = cached_run(workload, "none", params)
            result = cached_run(
                workload, prefetcher, params, prefetcher_kwargs=kwargs
            )
            speedups.append(speedup(result, baseline))
            coverages.append(result.coverage)
        rows.append(
            {
                "design": design,
                "speedup": geometric_mean(speedups),
                "coverage": arithmetic_mean(coverages),
                "storage_kib": bits / 8 / 1024,
            }
        )
    return rows


def format_unified_vs_cascaded(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["design", "speedup", "coverage", "storage_kib"],
        title="Ablation — unified history table vs cascaded dual tables",
        percent_columns=["coverage"],
    )


def run_vote_threshold(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    thresholds: Sequence[float] = (0.05, 0.20, 0.50, 0.80),
    params: Optional[SimulationParams] = None,
    include_most_recent: bool = True,
) -> List[Dict[str, object]]:
    """Sweep the short-event multi-match policy (paper default: 20 % vote)."""
    params = params if params is not None else default_params()
    variants = [
        (f"vote {threshold:.0%}", {"vote_threshold": threshold})
        for threshold in thresholds
    ]
    if include_most_recent:
        variants.append(("most recent", {"short_match_policy": "most_recent"}))
    rows: List[Dict[str, object]] = []
    for label, kwargs in variants:
        speedups = []
        coverages = []
        accuracies = []
        for workload in workloads:
            baseline = cached_run(workload, "none", params)
            result = cached_run(
                workload, "bingo", params, prefetcher_kwargs=kwargs
            )
            speedups.append(speedup(result, baseline))
            coverages.append(result.coverage)
            accuracies.append(result.accuracy)
        rows.append(
            {
                "policy": label,
                "speedup": geometric_mean(speedups),
                "coverage": arithmetic_mean(coverages),
                "accuracy": arithmetic_mean(accuracies),
            }
        )
    return rows


def format_vote_threshold(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["policy", "speedup", "coverage", "accuracy"],
        title="Ablation — short-event multi-match policy (paper: 20% vote)",
        percent_columns=["coverage", "accuracy"],
    )


def run_metadata_sharing(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """Private per-core prefetchers (the paper's setup) vs one shared one.

    Section V: "we consider every core to have its own prefetcher,
    independent of others (i.e., no metadata sharing among cores)".  This
    ablation quantifies that choice: a single Bingo instance observing all
    cores' LLC traffic shares history (homogeneous server workloads can
    benefit) but also mixes per-core patterns under one set of tables.
    """
    from repro.prefetchers.registry import make_prefetcher
    from repro.sim.runner import run_simulation

    params = params if params is not None else default_params()
    system = experiment_system()
    rows: List[Dict[str, object]] = []
    for design in ("private", "shared"):
        speedups = []
        coverages = []
        for workload in workloads:
            baseline = cached_run(workload, "none", params)
            if design == "private":
                result = cached_run(workload, "bingo", params)
            else:
                # one instance behind every core: no SimJob can carry it
                shared = make_prefetcher("bingo", system.address_map)
                result = run_simulation(
                    workload,
                    prefetcher="bingo",
                    prefetchers=[shared] * system.num_cores,
                    system=system,
                    instructions_per_core=params.instructions_per_core,
                    warmup_instructions=params.warmup_instructions,
                    scale=EXPERIMENT_SCALE,
                )
            speedups.append(speedup(result, baseline))
            coverages.append(result.coverage)
        rows.append(
            {
                "metadata": design,
                "speedup": geometric_mean(speedups),
                "coverage": arithmetic_mean(coverages),
            }
        )
    return rows


def format_metadata_sharing(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["metadata", "speedup", "coverage"],
        title="Ablation — private per-core vs shared Bingo metadata",
        percent_columns=["coverage"],
    )


def run_training_level(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """Train Bingo at the LLC (the paper's placement) vs at the L1D.

    Section V: "the fairly large capacity of a multi-megabyte LLC paves
    the way for longer residency of pages... enabling spatial prefetchers
    to completely observe the data accesses of each page".  At the L1,
    residencies end after a few hundred blocks of traffic, truncating
    footprints.
    """
    params = params if params is not None else default_params()
    rows: List[Dict[str, object]] = []
    for level in ("llc", "l1"):
        speedups = []
        coverages = []
        for workload in workloads:
            baseline = cached_run(workload, "none", params)
            result = cached_run(workload, "bingo", params, train_at=level)
            speedups.append(speedup(result, baseline))
            coverages.append(result.coverage)
        rows.append(
            {
                "trained_at": level,
                "speedup": geometric_mean(speedups),
                "coverage": arithmetic_mean(coverages),
            }
        )
    return rows


def format_training_level(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["trained_at", "speedup", "coverage"],
        title="Ablation — Bingo trained at the LLC (paper) vs at the L1D",
        percent_columns=["coverage"],
    )


def run_region_size(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    region_sizes: Sequence[int] = (1024, 2048, 4096),
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """Footprint region size: the paper's 2 KB vs half/double.

    Region size is a *system-level* geometry (the hierarchy's address map
    carries it), so each size's runs, baseline included, carry their own
    system.
    """
    params = params if params is not None else default_params()
    rows: List[Dict[str, object]] = []
    for region_size in region_sizes:
        system = experiment_system().scaled(
            address_map=AddressMap(region_size=region_size)
        )
        speedups = []
        coverages = []
        for workload in workloads:
            baseline = cached_run(workload, "none", params, system=system)
            result = cached_run(workload, "bingo", params, system=system)
            speedups.append(speedup(result, baseline))
            coverages.append(result.coverage)
        rows.append(
            {
                "region_bytes": region_size,
                "blocks_per_region": region_size // 64,
                "speedup": geometric_mean(speedups),
                "coverage": arithmetic_mean(coverages),
            }
        )
    return rows


def format_region_size(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["region_bytes", "blocks_per_region", "speedup", "coverage"],
        title="Ablation — spatial region size (paper: 2 KB)",
        percent_columns=["coverage"],
    )


def run_replacement_policy(
    workloads: Sequence[str] = DEFAULT_ABLATION_WORKLOADS,
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """Gmean speedup of Bingo, SMS and SPP under every LLC replacement policy.

    Section V trains Bingo at the LLC, and in this reproduction an LLC
    eviction ends each residency, so the policy decides what every
    footprint holds.  One row per registered policy.  Every cell goes
    to the executor as one batch.
    """
    from repro.memsys.replacement import available_replacements

    params = params if params is not None else default_params()
    prefetchers = ("bingo", "sms", "spp")
    policies = available_replacements()
    cells = [
        (policy, workload, prefetcher)
        for policy in policies
        for workload in workloads
        for prefetcher in ("none", *prefetchers)
    ]
    jobs = [
        experiment_job(workload, prefetcher, params, replacement=policy)
        for policy, workload, prefetcher in cells
    ]
    results = dict(zip(cells, cached_runs(jobs)))
    rows: List[Dict[str, object]] = []
    for policy in policies:
        row: Dict[str, object] = {"replacement": policy}
        for prefetcher in prefetchers:
            row[prefetcher] = geometric_mean(
                speedup(
                    results[policy, workload, prefetcher],
                    results[policy, workload, "none"],
                )
                for workload in workloads
            )
        rows.append(row)
    return rows


def format_replacement_policy(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        title="Ablation — gmean speedup under each LLC replacement policy",
    )
