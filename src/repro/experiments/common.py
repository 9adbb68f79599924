"""Shared configuration for all paper experiments.

The paper simulates 200 K instructions per checkpoint against a fully
*warmed* 8 MB LLC (SimFlex checkpoints).  A pure-Python simulator cannot
warm 8 MB of cache in tractable time, so the canonical experiment setup
scales the hierarchy and the workloads' working sets down by the same
factor (``EXPERIMENT_SCALE = 1/8``): a 1 MB LLC, 16 KB L1Ds, and
working sets an eighth of their paper size.  Capacity *ratios* — and
therefore miss rates, residency lengths, and prefetcher behaviour — are
preserved; DESIGN.md §2 documents this substitution.

Bingo's metadata structures are *not* scaled by default (the paper's
16 K-entry history table is cheap to model); the Fig. 6 sweep covers the
size axis explicitly.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.common.config import CacheConfig, SystemConfig
from repro.sim.engine import SimulationParams
from repro.sim.executor import Executor, ResultCache, SimJob
from repro.sim.results import SimResult
from repro.workloads.registry import WORKLOAD_NAMES

#: working sets (and hierarchy) at 1/8 of the paper's size
EXPERIMENT_SCALE = 0.125

#: The six prefetchers of Figs. 7–10, in the paper's bar order.
PAPER_PREFETCHERS = ("bop", "spp", "vldp", "ampm", "sms", "bingo")


def experiment_system(num_cores: int = 4) -> SystemConfig:
    """The scaled-down Table I system used by every experiment."""
    return SystemConfig(
        num_cores=num_cores,
        l1d=CacheConfig(
            size_bytes=16 * 1024, ways=8, hit_latency=4, mshr_entries=8
        ),
        llc=CacheConfig(
            size_bytes=1024 * 1024, ways=16, hit_latency=15, mshr_entries=64
        ),
    )


def is_quick() -> bool:
    """True when ``REPRO_QUICK`` selects the shortened run lengths.

    Quick runs keep every trend but under-train the per-page-history
    prefetchers (they need region generations to accumulate), so benches
    soften winner-takes-all assertions under quick mode.
    """
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


def default_params(quick: Optional[bool] = None) -> SimulationParams:
    """Measurement window: 120 K instr/core after 60 K warm-up.

    Set the environment variable ``REPRO_QUICK=1`` (or pass
    ``quick=True``) for a 4× shorter run — used by CI-style test runs
    where trend direction, not magnitude, is asserted.
    """
    if quick is None:
        quick = is_quick()
    if quick:
        return SimulationParams(
            instructions_per_core=45_000, warmup_instructions=15_000
        )
    return SimulationParams(
        instructions_per_core=180_000, warmup_instructions=60_000
    )


# ---------------------------------------------------------------------------
# Memoised runs: Figs. 7, 8, and 9 derive from the same (workload x
# prefetcher) runs, and every driver shares the ``none`` baselines, so one
# bench session pays for each run once.  The memo is keyed by
# ``SimJob.digest()``.  Every run routes through a
# repro.sim.executor.Executor:
#
# * ``REPRO_WORKERS=N`` fans the independent points of a batch out over
#   N worker processes (results are bit-identical to serial);
# * ``REPRO_CACHE=1`` additionally memoises completed runs on disk
#   (``REPRO_CACHE_DIR`` or ~/.cache/repro) across processes.
# ---------------------------------------------------------------------------

_MATRIX_CACHE: Dict[str, SimResult] = {}


def env_workers() -> int:
    """Worker-process count for experiment drivers (``REPRO_WORKERS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


def env_cache() -> Optional[ResultCache]:
    """The on-disk result cache, when ``REPRO_CACHE`` enables it."""
    if os.environ.get("REPRO_CACHE", "") in ("", "0"):
        return None
    return ResultCache()


def experiment_executor(
    workers: Optional[int] = None, cache: Optional[ResultCache] = None
) -> Executor:
    """An executor wired to the env knobs."""
    return Executor(
        workers=workers if workers is not None else env_workers(),
        cache=cache if cache is not None else env_cache(),
    )


def experiment_job(
    workload: str,
    prefetcher: str,
    params: Optional[SimulationParams] = None,
    prefetcher_kwargs: Optional[dict] = None,
    system: Optional[SystemConfig] = None,
    train_at: str = "llc",
    replacement: str = "lru",
) -> SimJob:
    """One experiment-config point (default: :func:`experiment_system`)."""
    params = params if params is not None else default_params()
    return SimJob.build(
        workload,
        prefetcher=prefetcher,
        system=system if system is not None else experiment_system(),
        instructions_per_core=params.instructions_per_core,
        warmup_instructions=params.warmup_instructions,
        scale=EXPERIMENT_SCALE,
        prefetcher_kwargs=prefetcher_kwargs,
        train_at=train_at,
        replacement=replacement,
    )


def cached_runs(
    jobs: Sequence[SimJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[SimResult]:
    """Results of ``jobs`` in order, recalled or run as one batch.

    The jobs not yet memoised in this process go to the executor
    together, so with ``workers > 1`` (or ``REPRO_WORKERS``) they fan
    out.
    """
    digests = [job.digest() for job in jobs]
    missing: Dict[str, SimJob] = {}
    for digest, job in zip(digests, jobs):
        if digest not in _MATRIX_CACHE:
            missing.setdefault(digest, job)
    if missing:
        executor = experiment_executor(workers=workers, cache=cache)
        results = executor.run_jobs(list(missing.values()))
        _MATRIX_CACHE.update(zip(missing, results))
    return [_MATRIX_CACHE[digest] for digest in digests]


def cached_run(
    workload: str,
    prefetcher: str,
    params: Optional[SimulationParams] = None,
    prefetcher_kwargs: Optional[dict] = None,
    system: Optional[SystemConfig] = None,
    train_at: str = "llc",
) -> SimResult:
    """Run (or recall) one experiment-config simulation.

    All experiment drivers funnel through here (or :func:`cached_runs`)
    so identical runs are shared within a process.
    """
    job = experiment_job(
        workload, prefetcher, params, prefetcher_kwargs, system, train_at
    )
    return cached_runs([job])[0]


def run_matrix(
    workloads: Optional[Sequence[str]] = None,
    prefetchers: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Dict[str, SimResult]]:
    """The Figs. 7–9 matrix: every workload under every prefetcher + baseline.

    All missing cells are submitted to the executor as one batch, so with
    ``workers > 1`` (or ``REPRO_WORKERS``) the whole matrix fans out.
    """
    workloads = list(workloads) if workloads is not None else list(WORKLOAD_NAMES)
    prefetchers = (
        list(prefetchers) if prefetchers is not None else list(PAPER_PREFETCHERS)
    )
    params = params if params is not None else default_params()

    cells = [
        (workload, prefetcher)
        for workload in workloads
        for prefetcher in ["none"] + [p for p in prefetchers if p != "none"]
    ]
    jobs = [experiment_job(workload, pf, params) for workload, pf in cells]
    runs = cached_runs(jobs, workers=workers, cache=cache)
    results: Dict[str, Dict[str, SimResult]] = {}
    for (workload, prefetcher), result in zip(cells, runs):
        results.setdefault(workload, {})[prefetcher] = result
    return results
