"""Engine/executor speed benchmark: points/sec, ns/access, speedups.

Not a paper figure: tracks the simulator's own performance as a number
rather than a claim.  Measurements over a Fig. 8-style
(workload × prefetcher) matrix:

* **serial** — every point through the in-process generator path (the
  general loop);
* **vectorized** — the same serial matrix replayed from packed compiled
  traces by the engine's fast loop (cold trace cache: the first point
  of each workload pays the compile, the rest ``mmap`` the arena), plus
  the fast-loop run count and how many of those runs had an LLC
  replacement-policy interface attached (``ineligible_policy``; none on
  this LRU matrix);
* **parallel** — the vectorized matrix through ``Executor(workers=N)``
  (``effective_workers`` records what the host can actually run;
  ``oversubscribed`` flags worker counts beyond ``cpu_count``, where
  the speedup is time-slicing, not parallelism);
* **cached** — the same matrix again, answered by the on-disk result
  cache;

plus the serial inner-loop rate (simulated instructions/sec and ns per
memory access, generator vs fast loop).  Every full run also
writes the report — with git SHA and timestamp — to
``BENCH_engine.json`` at the repo root, so the perf trajectory is
recorded run over run.  Run as a script for the full report::

    PYTHONPATH=src python benchmarks/bench_engine_speed.py --workers 4

or through pytest (small matrix, one round)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_speed.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.common import (
    EXPERIMENT_SCALE,
    PAPER_PREFETCHERS,
    default_params,
    experiment_system,
)
from repro.sim.engine import engine_tier_counters
from repro.sim.executor import Executor, ResultCache, SimJob, execute_job
from repro.workloads.registry import WORKLOAD_NAMES

#: where the perf trajectory is recorded (committed alongside the code)
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def matrix_jobs(
    workloads: Optional[List[str]] = None,
    prefetchers: Optional[List[str]] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    compile: bool = True,
) -> List[SimJob]:
    """A Fig. 8-style job matrix: baseline + prefetchers × workloads."""
    params = default_params()
    instructions = instructions or params.instructions_per_core
    warmup = warmup if warmup is not None else params.warmup_instructions
    workloads = workloads or list(WORKLOAD_NAMES)
    prefetchers = prefetchers or ["none"] + list(PAPER_PREFETCHERS)
    return [
        SimJob.build(
            workload,
            prefetcher=prefetcher,
            system=experiment_system(),
            instructions_per_core=instructions,
            warmup_instructions=warmup,
            scale=EXPERIMENT_SCALE,
            compile=compile,
        )
        for workload in workloads
        for prefetcher in prefetchers
    ]


def _timed(executor: Executor, jobs: List[SimJob]) -> float:
    start = time.perf_counter()
    executor.run_jobs(jobs)
    return time.perf_counter() - start


def measure_matrix(
    jobs: List[SimJob], workers: int, cache_dir: str
) -> Dict[str, float]:
    """Generator vs fast loop vs parallel vs cache-hit.

    ``jobs`` are compiled-path jobs on the fast loop (the default
    execution configuration); the generator pass is derived from them
    with ``compile=False, vectorized=False``.  The trace cache under
    ``$REPRO_CACHE_DIR`` starts cold for the vectorized pass, so its
    time includes one trace compile per workload — the real cost
    profile of a fresh sweep.

    ``parallel_speedup`` is wall-clock over the *serial generator*
    matrix, whatever the host — on an oversubscribed box (more workers
    than CPUs, flagged by ``oversubscribed``) the gain beyond
    ``effective_workers`` comes from time-slicing worker processes
    during each other's interpreter overhead, not from parallel
    compute, so it must not be read as per-core scaling.
    """
    from dataclasses import replace

    cpu_count = os.cpu_count() or 1
    generator_jobs = [
        replace(job, compile=False, vectorized=False) for job in jobs
    ]
    serial_s = _timed(Executor(workers=1), generator_jobs)
    vector_executor = Executor(workers=1)
    tiers_before = engine_tier_counters()
    vectorized_s = _timed(vector_executor, jobs)
    tiers_after = engine_tier_counters()
    cache = ResultCache(cache_dir)
    parallel_s = _timed(Executor(workers=workers, cache=cache), jobs)
    cached_executor = Executor(workers=workers, cache=cache)
    cached_s = _timed(cached_executor, jobs)
    assert cached_executor.stats.get("cache_hits") == len(jobs)
    return {
        "points": len(jobs),
        "workers": workers,
        "effective_workers": min(workers, cpu_count),
        "oversubscribed": workers > cpu_count,
        "serial_s": round(serial_s, 3),
        "vectorized_s": round(vectorized_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cached_s": round(cached_s, 3),
        "serial_points_per_s": round(len(jobs) / serial_s, 3),
        "vectorized_points_per_s": round(len(jobs) / vectorized_s, 3),
        "parallel_points_per_s": round(len(jobs) / parallel_s, 3),
        "cached_points_per_s": round(len(jobs) / cached_s, 3),
        "vectorized_speedup": round(serial_s / vectorized_s, 2),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cached_speedup": round(serial_s / cached_s, 2),
        # fast-loop engagement over the vectorized pass: every point
        # selects the fast loop; none has an LLC policy interface
        "vector_tier_runs": tiers_after["vectorized"]
        - tiers_before["vectorized"],
        "vector_tier_demoted_ineligible_policy": tiers_after[
            "demoted_ineligible_policy"
        ] - tiers_before["demoted_ineligible_policy"],
        "trace_compile_hits": int(
            vector_executor.stats.get("trace_compile_hits")
        ),
        "trace_compile_misses": int(
            vector_executor.stats.get("trace_compile_misses")
        ),
    }


def measure_inner_loop(
    instructions: int = 60_000, warmup: int = 20_000
) -> Dict[str, float]:
    """Serial inner-loop rate: generator vs fast loop.

    The compiled job runs twice: the cold pass pays the one-time trace
    compile (reported as ``trace_compile_s``), the warm pass — the
    steady state of every sweep after its first point — is what the
    ``vectorized_*`` rates describe.
    """

    def job(compile_: bool) -> SimJob:
        return SimJob.build(
            "streaming",
            prefetcher="bingo",
            system=experiment_system(),
            instructions_per_core=instructions,
            warmup_instructions=warmup,
            scale=EXPERIMENT_SCALE,
            compile=compile_,
            vectorized=compile_,
        )

    start = time.perf_counter()
    result = execute_job(job(False))
    generator_s = time.perf_counter() - start
    start = time.perf_counter()
    execute_job(job(True))
    vectorized_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    vector_result = execute_job(job(True))
    vectorized_s = time.perf_counter() - start
    assert vector_result.to_dict() == result.to_dict(), (
        "fast loop diverged from the generator path"
    )

    raw = result.raw_stats["memsys"]
    accesses = sum(
        group["accesses"]
        for name, group in raw.items()
        if name.startswith("l1d")
    )
    total_instructions = instructions * len(result.cores)
    return {
        "inner_elapsed_s": round(generator_s, 3),
        "instructions_per_s": round(total_instructions / generator_s),
        "ns_per_instruction": round(generator_s / total_instructions * 1e9, 1),
        "ns_per_access": round(generator_s / accesses * 1e9, 1),
        "vectorized_elapsed_s": round(vectorized_s, 3),
        "vectorized_instructions_per_s": round(
            total_instructions / vectorized_s
        ),
        "vectorized_ns_per_instruction": round(
            vectorized_s / total_instructions * 1e9, 1
        ),
        "vectorized_ns_per_access": round(vectorized_s / accesses * 1e9, 1),
        "trace_compile_s": round(vectorized_cold_s - vectorized_s, 3),
        "vectorized_inner_speedup": round(generator_s / vectorized_s, 2),
    }


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(REPORT_PATH.parent),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_report(report: Dict[str, object], path: Path = REPORT_PATH) -> Path:
    """Persist the bench report (plus provenance) as pretty JSON."""
    entry = {
        "git_sha": _git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        **report,
    }
    path.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    return path


def run_bench(
    workers: int = 4,
    workloads: Optional[List[str]] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, object]:
    jobs = matrix_jobs(
        workloads=workloads, instructions=instructions, warmup=warmup
    )
    report: Dict[str, object] = {"cpu_count": os.cpu_count() or 1}
    previous_cache = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        # both caches (results *and* compiled traces) start cold and
        # stay out of the user's real ~/.cache/repro
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            report.update(
                measure_matrix(jobs, workers, os.path.join(tmp, "results"))
            )
            report.update(measure_inner_loop())
        finally:
            if previous_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous_cache
    return report


#: the miss-path smoke matrix: two miss-dense stress points
MISSPATH_SMOKE_POINTS = (("zipf", "bingo"), ("oscillate", "bingo"))


def run_misspath_smoke(
    instructions: int = 20_000, warmup: int = 5_000
) -> Dict[str, object]:
    """CI gate for the shared miss tail: fast loop *and* agreement.

    Two miss-dense points (``MISSPATH_SMOKE_POINTS``), each run by the
    fast loop, by the general loop over the same compiled trace, and by
    the general loop over the generators.  Fails (``ok: False``) if a
    point does not run the fast loop with no LLC policy interface
    (``vectorized`` +1 and ``demoted`` +0 per point), if any leg's
    ``SimResult`` diverges field-for-field from the others, or if a
    point records no L1 MSHR stall (``mshr`` sums ``stalls`` and
    ``allocations`` over the cores), so the agreement covers the stall
    path.
    """
    from dataclasses import replace

    report: Dict[str, object] = {
        "points": [f"{w}/{p}" for w, p in MISSPATH_SMOKE_POINTS],
        "instructions": instructions,
        "warmup": warmup,
    }
    divergences: List[str] = []
    mshr: Dict[str, Dict[str, int]] = {}
    previous_cache = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-misspath-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            runs = policy_runs = 0
            start = time.perf_counter()
            for workload, prefetcher in MISSPATH_SMOKE_POINTS:
                job = SimJob.build(
                    workload,
                    prefetcher=prefetcher,
                    system=experiment_system(),
                    instructions_per_core=instructions,
                    warmup_instructions=warmup,
                    scale=EXPERIMENT_SCALE,
                    compile=True,
                    vectorized=True,
                )
                before = engine_tier_counters()
                vectorized = execute_job(job)
                after = engine_tier_counters()
                runs += after["vectorized"] - before["vectorized"]
                policy_runs += after["demoted"] - before["demoted"]
                general = execute_job(replace(job, vectorized=False))
                generator = execute_job(
                    replace(job, compile=False, vectorized=False)
                )
                if general.to_dict() != generator.to_dict():
                    divergences.append(
                        f"{workload}/{prefetcher}: compiled trace != generator"
                    )
                if vectorized.to_dict() != general.to_dict():
                    divergences.append(
                        f"{workload}/{prefetcher}: fast loop != general loop"
                    )
                l1ds = [
                    group["mshr"]
                    for name, group in vectorized.raw_stats["memsys"].items()
                    if name.startswith("l1d")
                ]
                mshr[f"{workload}/{prefetcher}"] = {
                    counter: sum(group.get(counter, 0) for group in l1ds)
                    for counter in ("stalls", "allocations")
                }
            elapsed = time.perf_counter() - start
        finally:
            if previous_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous_cache
    report.update(
        elapsed_s=round(elapsed, 3),
        vector_tier_runs=runs,
        demoted_ineligible_policy=policy_runs,
        divergences=divergences,
        mshr=mshr,
        ok=runs == len(MISSPATH_SMOKE_POINTS)
        and policy_runs == 0
        and not divergences
        and all(point["stalls"] > 0 for point in mshr.values()),
    )
    return report


# -- pytest entry point (small matrix, one round) ---------------------------


def test_engine_speed(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = matrix_jobs(
        workloads=["streaming", "em3d"],
        prefetchers=["none", "bingo"],
        instructions=6000,
        warmup=2000,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        report = benchmark.pedantic(
            lambda: measure_matrix(jobs, workers=2, cache_dir=tmp),
            rounds=1,
            iterations=1,
        )
    benchmark.extra_info["report"] = report
    print("\n" + json.dumps(report, indent=2))
    # correctness gates only — CI must not fail on a slow runner
    assert report["cached_speedup"] >= 1.0
    assert report["trace_compile_misses"] <= len({job.workload for job in jobs})
    path = write_report({"cpu_count": os.cpu_count() or 1, **report})
    print(f"report written to {path}")


def test_compiled_path_matches_generator(tmp_path, monkeypatch):
    """The CI correctness gate: compiled and generator paths agree.

    Field-for-field ``SimResult`` equality over a small matrix between
    the fast loop, the general loop over the same compiled trace, and
    the general loop over the generators; any divergence fails the
    smoke-perf job even though speed never does.
    """
    from dataclasses import replace

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = matrix_jobs(
        workloads=["streaming", "em3d"],
        prefetchers=["none", "bingo", "sms", "bop", "spp"],
        instructions=4000,
        warmup=1000,
    )
    for job in jobs:
        vectorized = execute_job(job)
        general = execute_job(replace(job, vectorized=False))
        generator = execute_job(
            replace(job, compile=False, vectorized=False)
        )
        assert general.to_dict() == generator.to_dict(), (
            f"compiled trace diverged on {job.workload}/{job.prefetcher}"
        )
        assert vectorized.to_dict() == general.to_dict(), (
            f"fast loop diverged on {job.workload}/{job.prefetcher}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workloads (default: all of Table II)")
    parser.add_argument("--instructions", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--no-report", action="store_true",
                        help="skip writing BENCH_engine.json")
    parser.add_argument("--misspath", action="store_true",
                        help="run only the miss-path smoke gate: two "
                        "miss-dense points, fail if the fast loop does "
                        "not run or diverges from the general loop")
    args = parser.parse_args(argv)
    if args.misspath:
        report = run_misspath_smoke(
            instructions=args.instructions or 20_000,
            warmup=args.warmup if args.warmup is not None else 5_000,
        )
        print(json.dumps(report, indent=2))
        if not report["ok"]:
            print(
                "miss-path smoke FAILED: every point must run the fast "
                "loop with no LLC policy interface, agree with the "
                "general loop and the generators, and stall its MSHRs",
                file=sys.stderr,
            )
            return 1
        return 0
    report = run_bench(
        workers=args.workers,
        workloads=args.workloads,
        instructions=args.instructions,
        warmup=args.warmup,
    )
    print(json.dumps(report, indent=2))
    if not args.no_report:
        path = write_report(report)
        print(f"report written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
