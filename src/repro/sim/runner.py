"""High-level run API: what examples, experiments, and benches call."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.common.config import SystemConfig
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.sim.results import SimResult
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


def _resolve_workload(
    workload: Union[str, Workload], seed: int, scale: float
) -> Workload:
    if isinstance(workload, str):
        return make_workload(workload, seed=seed, scale=scale)
    return workload  # a Workload or CompiledWorkload instance, as-is


def run_simulation(
    workload: Union[str, Workload],
    prefetcher: str = "none",
    system: Optional[SystemConfig] = None,
    instructions_per_core: int = 100_000,
    warmup_instructions: int = 20_000,
    seed: int = 1234,
    scale: float = 1.0,
    prefetcher_kwargs: Optional[dict] = None,
    prefetchers=None,
    train_at: str = "llc",
    obs=None,
    sink=None,
    compile: bool = False,
    vectorized: bool = True,
    replacement: str = "lru",
) -> SimResult:
    """Run one workload under one prefetcher; returns the measured window.

    ``workload`` may be a Table II name (``"em3d"``), a custom
    :class:`repro.workloads.base.Workload`, or an already-compiled
    :class:`repro.sim.compile.CompiledWorkload`.  ``prefetcher_kwargs``
    are forwarded to the prefetcher factory (e.g. ``{"degree": 32}`` for
    the Fig. 10 aggressive variants); ``prefetchers`` may instead supply
    ready-built per-core instances (used by the motivation experiments
    that need to interrogate the prefetcher afterwards).

    ``obs`` (an :class:`repro.obs.ObservabilityConfig`) turns on event
    tracing and/or timeline sampling; ``sink`` supplies a ready-made
    :class:`repro.obs.TraceSink` instead of a trace file.

    ``compile=True`` packs the workload's streams into a compiled trace
    first (cached on disk for named workloads, where the trace identity
    is fully known), enabling the engine's fast loop; ``vectorized``
    (default on) permits that loop when the run qualifies, and
    ``False`` keeps the general loop.  Results are identical either way.

    ``replacement`` selects the LLC replacement policy by registry name
    (:mod:`repro.memsys.replacement`); ``"opt"`` — the Belady oracle —
    needs the packed trace to pre-scan, so pass ``compile=True`` with it.
    """
    resolved = _resolve_workload(workload, seed, scale)
    if compile:
        from repro.sim.compile import compile_workload

        resolved = compile_workload(
            resolved,
            records_per_core=instructions_per_core,
            scale=scale if isinstance(workload, str) else None,
        )
    engine = SimulationEngine(
        workload=resolved,
        prefetcher=prefetcher,
        system=system,
        params=SimulationParams(
            instructions_per_core=instructions_per_core,
            warmup_instructions=warmup_instructions,
        ),
        prefetcher_kwargs=prefetcher_kwargs,
        prefetchers=prefetchers,
        train_at=train_at,
        obs=obs,
        sink=sink,
        vectorized=vectorized,
        replacement=replacement,
    )
    return engine.run()


def compare_prefetchers(
    workload: str,
    prefetchers: Sequence[str],
    system: Optional[SystemConfig] = None,
    instructions_per_core: int = 100_000,
    warmup_instructions: int = 20_000,
    seed: int = 1234,
    scale: float = 1.0,
    prefetcher_kwargs: Optional[Dict[str, dict]] = None,
    include_baseline: bool = True,
    workers: int = 1,
    cache=None,
    executor=None,
    compile: bool = True,
    vectorized: bool = True,
    replacement: str = "lru",
) -> Dict[str, SimResult]:
    """Run a workload under several prefetchers (plus the baseline).

    Returns ``{prefetcher_name: SimResult}``; the no-prefetcher baseline
    is included under ``"none"`` unless disabled.  ``prefetcher_kwargs``
    maps prefetcher name to its keyword overrides.

    ``workload`` is a registered workload name.  The per-prefetcher runs
    are independent, so they run as one batch of
    :class:`repro.sim.executor.SimJob`\\ s — pass ``workers`` (and
    optionally a ``repro.sim.executor.ResultCache`` as ``cache``) or a
    pre-built ``executor`` to fan out / memoise.

    ``compile`` (default on) replays each run from a packed compiled
    trace — built once and shared by every prefetcher in the comparison
    — instead of re-draining the workload generators per run; results
    are identical either way.
    """
    from repro.sim.executor import Executor, SimJob

    names = list(prefetchers)
    if include_baseline and "none" not in names:
        names.insert(0, "none")
    kwargs_by_name = prefetcher_kwargs or {}
    jobs = [
        SimJob.build(
            workload,
            prefetcher=name,
            system=system,
            instructions_per_core=instructions_per_core,
            warmup_instructions=warmup_instructions,
            seed=seed,
            scale=scale,
            prefetcher_kwargs=kwargs_by_name.get(name),
            compile=compile,
            vectorized=vectorized,
            replacement=replacement,
        )
        for name in names
    ]
    if executor is None:
        executor = Executor(workers=workers, cache=cache)
    return dict(zip(names, executor.run_jobs(jobs)))
