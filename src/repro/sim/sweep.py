"""Parameter sweeps (Fig. 6 and the ablation benches)."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.common.config import SystemConfig
from repro.sim.executor import Executor, ResultCache, SimJob
from repro.sim.results import SimResult


def expand_grid(
    axes: Mapping[str, Sequence[object]]
) -> List[Dict[str, object]]:
    """Cartesian product of named value axes, in deterministic order.

    ``{"degree": [1, 2], "threshold": [0.2]}`` expands to
    ``[{"degree": 1, "threshold": 0.2}, {"degree": 2, "threshold": 0.2}]``;
    axes iterate in insertion order with the *last* axis varying fastest
    (odometer order), so grids enumerate reproducibly everywhere — the
    fixed-grid sweeps here and the adaptive search in
    :mod:`repro.serve.orchestrate` agree on point indices.  An empty
    axis mapping is one empty combination; an empty *axis* is an error
    (it would silently produce zero points).
    """
    names = list(axes)
    for name in names:
        if not list(axes[name]):
            raise ValueError(f"grid axis {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(list(axes[name]) for name in names))
    ]


def sweep_prefetcher_parameter(
    workload: str,
    prefetcher: str,
    parameter: str,
    values: Iterable,
    base_kwargs: Optional[dict] = None,
    system: Optional[SystemConfig] = None,
    instructions_per_core: int = 100_000,
    warmup_instructions: int = 20_000,
    seed: int = 1234,
    scale: float = 1.0,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    executor: Optional[Executor] = None,
    replacement: str = "lru",
) -> Dict[object, SimResult]:
    """Run the same (workload, prefetcher) across values of one parameter.

    Used for the Fig. 6 history-size sweep
    (``parameter="history_entries"``) and the vote-threshold / region-size
    ablations.  Returns ``{value: SimResult}`` in input order.

    ``workload`` is a registered workload name.  The sweep points are
    independent, so they run as one batch of
    :class:`repro.sim.executor.SimJob`\\ s: pass ``workers`` (and
    optionally ``cache``) or a pre-built ``executor`` to fan out /
    memoise.

    All sweep points share one workload trace, so it is packed once,
    through the on-disk compiled-trace cache, and every point replays
    the arena instead of re-draining the generators.
    """
    values = list(values)
    jobs = []
    for value in values:
        kwargs = dict(base_kwargs or {})
        kwargs[parameter] = value
        jobs.append(
            SimJob.build(
                workload,
                prefetcher=prefetcher,
                system=system,
                instructions_per_core=instructions_per_core,
                warmup_instructions=warmup_instructions,
                seed=seed,
                scale=scale,
                prefetcher_kwargs=kwargs,
                replacement=replacement,
            )
        )
    if executor is None:
        executor = Executor(workers=workers, cache=cache)
    return dict(zip(values, executor.run_jobs(jobs)))
