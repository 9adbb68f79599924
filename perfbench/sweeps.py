"""The in-process sweeps: ``SimJob`` through ``Executor(workers=1)``.

Set-up compiles every trace the sweep replays from a cold trace cache.
The timed phase then replays the whole point list a fixed number of
times (sized so it lasts about ``--seconds``) through an executor with
no result cache, checking each result against its reference digest and
each point's engine tier.  Cached replays through an executor with a
result cache are interleaved with the cold points.  With ``--trace 1``
the same set-up and phase run again under spans and the stack sampler.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench import specs, tracing
from perfbench.stats import (
    UNBOUNDED,
    Ledger,
    Report,
    TrafficError,
    in_reference_seconds,
    median,
    result_digest,
    tail,
    typical_pass,
)

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 3
#: cached replays after each cold point
CACHED_PER_POINT = 3
#: nominal seconds per pass on a 2-vCPU host; fixes the pass count, so
#: every run of a workload does the same work and reports the same
#: sample counts
NOMINAL_PASS_S = {"sweep-sparse": 1.25, "sweep-dense": 2.4}
#: sampled self-times inside ``engine.run`` must add up to the span
#: total within this share
INTEGRITY_SHARE = 0.2
#: the reference loop, a fixed piece of pure-Python work, is timed after
#: every cold point (and during a serve phase, see ``service.py``).
#: Timings other than ``setup_s`` are reported in reference seconds: one
#: reference second is the time the host took, during the same pass or
#: phase, for REFERENCE_RATE iterations of the loop.  Changing either
#: constant rescales every reported timing.
REFERENCE_ITERATIONS = 200_000
REFERENCE_RATE = 20_000_000


@dataclass
class PhaseResult:
    wall: float = 0.0
    #: host seconds
    point_seconds: List[float] = field(default_factory=list)
    pass_seconds: List[float] = field(default_factory=list)
    cached_seconds: List[float] = field(default_factory=list)
    #: the same samples in reference seconds
    point_ref: List[float] = field(default_factory=list)
    cached_ref: List[float] = field(default_factory=list)
    #: host seconds of every reference loop
    reference_seconds: List[float] = field(default_factory=list)
    instructions: int = 0
    sim: Dict[str, float] = field(default_factory=dict)
    tiers: Dict[str, int] = field(default_factory=dict)


def reference_loop(clock=time.perf_counter) -> float:
    """Seconds of one run of the reference loop, by ``clock``.

    Load from other tenants of a shared VM moves the speed of this loop
    and of a sweep point together, by up to 1.8x within a quarter of an
    hour: both are mostly interpreter work.  A pass's timings divided by
    its loops' median time therefore move far less than either does.
    """
    start = clock()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return clock() - start


def passes_for(workload: str, seconds: float) -> int:
    # at least 2 passes, so a run has more than 10 points for the tail
    return max(2, int(round(seconds / NOMINAL_PASS_S[workload])))


def _clear_trace_memo() -> None:
    """Empty the in-process memo of compiled arenas, so the next
    ``compile_workload`` reads or builds the trace instead of reusing
    this process's copy."""
    from repro.sim.compile import workload as compiled

    compiled._MEMO.clear()


def setup_once(points: List[specs.Point], cache_root: str) -> float:
    """Build and compile every trace of ``points`` from a cold cache."""
    from repro.sim.compile import TraceCache, compile_counters, compile_workload
    from repro.workloads.registry import make_workload

    shutil.rmtree(cache_root, ignore_errors=True)
    _clear_trace_memo()
    traces = sorted({(p.trace, p.seed, p.instructions) for p in points})
    misses = compile_counters()["trace_compile_misses"]
    start = time.perf_counter()
    cache = TraceCache(cache_root)
    for trace, seed, instructions in traces:
        compile_workload(
            make_workload(trace, seed=seed, scale=1.0),
            records_per_core=instructions,
            scale=1.0,
            cache=cache,
        )
    elapsed = time.perf_counter() - start
    compiled = compile_counters()["trace_compile_misses"] - misses
    if compiled != len(traces):
        raise TrafficError(
            f"set-up compiled {compiled} of {len(traces)} traces cold; "
            "the trace cache was not cold"
        )
    return elapsed


def sim_counts(raw: Dict) -> Dict[str, float]:
    """Whole-run simulated counts (warm-up included) from ``raw_stats``."""
    memsys = raw["memsys"]
    llc = memsys["llc"]
    cores = [value for key, value in raw.items() if key.startswith("core")]
    return {
        "instructions": sum(core["instructions"] for core in cores),
        "l1d_misses": sum(
            group["misses"] for key, group in memsys.items() if key.startswith("l1d")
        ),
        "llc_demand_misses": llc["demand_misses"],
        "dram_reads": memsys["dram"]["reads"],
        "prefetches_issued": llc["prefetches_issued"],
        "covered": llc["covered"],
    }


def timed_phase(jobs, points, refs: specs.References, passes: int, ledger: Ledger,
                cache_root: str) -> PhaseResult:
    """Replay every point ``passes`` times; check results and tiers.

    Each cold point is followed by ``CACHED_PER_POINT`` replays of points
    already stored in a result cache, so cached samples spread over the
    whole phase as the cold ones do.  Timed: ``Executor.run_job`` alone.
    """
    from repro.sim import Executor, ResultCache
    from repro.sim.compile import compile_counters
    from repro.sim.engine import engine_tier_counters

    executor = Executor(workers=1)
    shutil.rmtree(cache_root, ignore_errors=True)
    cache = ResultCache(cache_root)
    cached_executor = Executor(workers=1, cache=cache)
    stored: List = []
    phase = PhaseResult()
    problems: List[str] = []
    compiles = compile_counters()["trace_compile_misses"]
    tiers_before = engine_tier_counters()
    for pass_index in range(passes):
        pass_seconds = 0.0
        points_from = len(phase.point_seconds)
        cached_from = len(phase.cached_seconds)
        loops_from = len(phase.reference_seconds)
        for job, point in zip(jobs, points):
            before = engine_tier_counters()
            t0 = time.perf_counter()
            try:
                result = executor.run_job(job)
            except Exception as exc:  # a crash is a failed operation
                ledger.fail(f"error:{type(exc).__name__}")
                result = None
            seconds = time.perf_counter() - t0
            phase.point_seconds.append(seconds)
            pass_seconds += seconds
            if result is not None:
                after = engine_tier_counters()
                ledger.check(result_digest(result.to_dict()), refs.get(job))
                for key, value in sim_counts(result.raw_stats).items():
                    phase.sim[key] = phase.sim.get(key, 0) + value
                vectorized = after["vectorized"] - before["vectorized"]
                demoted = after["demoted"] - before["demoted"]
                policy = (after["demoted_ineligible_policy"]
                          - before["demoted_ineligible_policy"])
                expected = 1 if point.replacement != "lru" else 0
                if vectorized != 1 or demoted != expected or policy != expected:
                    problems.append(
                        f"{point.label}: vectorized+{vectorized} demoted+{demoted} "
                        f"(ineligible_policy+{policy}), expected vectorized+1 "
                        f"demoted+{expected}"
                    )
                if pass_index == 0:
                    cache.store(job, result)
                    stored.append(job)
            phase.reference_seconds.append(reference_loop())
            for _ in range(CACHED_PER_POINT if stored else 0):
                cached_job = stored[len(phase.cached_seconds) % len(stored)]
                t0 = time.perf_counter()
                try:
                    hit = cached_executor.run_job(cached_job)
                except Exception as exc:
                    ledger.fail(f"error:{type(exc).__name__}")
                    hit = None
                phase.cached_seconds.append(time.perf_counter() - t0)
                if hit is not None:
                    ledger.check(result_digest(hit.to_dict()), refs.get(cached_job))
        phase.pass_seconds.append(pass_seconds)
        loops = phase.reference_seconds[loops_from:]
        phase.point_ref.extend(in_reference_seconds(
            phase.point_seconds[points_from:], loops, REFERENCE_ITERATIONS, REFERENCE_RATE))
        phase.cached_ref.extend(in_reference_seconds(
            phase.cached_seconds[cached_from:], loops, REFERENCE_ITERATIONS, REFERENCE_RATE))
    phase.wall = sum(phase.point_seconds)
    phase.instructions = int(phase.sim.get("instructions", 0))
    after_all = engine_tier_counters()
    phase.tiers = {key: after_all[key] - tiers_before[key] for key in after_all}
    compiled = compile_counters()["trace_compile_misses"] - compiles
    if compiled:
        problems.append(f"the timed phase compiled {compiled} trace(s)")
    cached = cached_executor.stats.counters()
    if cached.get("executed", 0) or cached.get("cache_hits", 0) != len(phase.cached_seconds):
        problems.append(
            f"cached replays executed {cached.get('executed', 0)} and hit "
            f"{cached.get('cache_hits', 0)} of {len(phase.cached_seconds)}"
        )
    if problems:
        raise TrafficError("; ".join(problems[:5]))
    return phase


def run(ctx) -> Report:
    """One sweep workload; ``ctx`` carries the parsed arguments."""
    import repro.sim.vector  # noqa: F401  the tier's import is not timed

    points = specs.sweep_points(ctx.workload, ctx.seed)
    jobs = [specs.sweep_job(point) for point in points]
    refs = specs.References(ctx.bench_dir, ctx.shared_dir, ctx.workload, ctx.seed)
    ctx.note("references computed", specs.ensure_references(refs, jobs))

    trace_root = os.path.join(ctx.work_dir, "cache")
    os.environ["REPRO_CACHE_DIR"] = trace_root
    passes = passes_for(ctx.workload, ctx.seconds)
    ledger = ctx.ledger
    report = Report()

    reps = 1 if ctx.trace else SETUP_REPS
    setup = [setup_once(points, trace_root) for _ in range(reps)]
    results_root = os.path.join(ctx.work_dir, "results")
    phase = timed_phase(jobs, points, refs, passes, ledger, results_root)
    ctx.note("pass_seconds", [round(x, 3) for x in phase.pass_seconds])
    if not ctx.trace:
        report.add("setup_s", median(setup), "s", len(setup))
        ctx.note("reference_loop_s", round(median(phase.reference_seconds), 5))
        # the bounded names carry reference seconds; ``.host`` the same
        # samples in host seconds, printed and recorded only
        for suffix, points_s, cached_s, note in (
            ("", phase.point_ref, phase.cached_ref, "reference seconds"),
            (".host", phase.point_seconds, phase.cached_seconds, "host seconds; printed only"),
        ):
            n = len(points_s)
            value, pct, count = tail(points_s)
            # every pass replays the same points, so it simulates the same
            # instructions; time it as a typical pass (per-point medians)
            typical = typical_pass(points_s, len(points))
            report.add("sim_minstr_per_s" + suffix,
                       phase.instructions / passes / typical / 1e6, "Minstr/s", n,
                       f"{note}; {passes} passes x {len(points)} points")
            report.add("jobs_per_s" + suffix, len(points) / typical, "1/s", n, note)
            report.add("cold_job_p50_s" + suffix, median(points_s), "s", n, note)
            report.add("cold_job_tail_s" + suffix, value, "s", count, f"{note}; p{pct:.1f}")
            report.add("cached_job_p50_s" + suffix, median(cached_s), "s", len(cached_s),
                       f"{note}; {UNBOUNDED}")
        report.add("peak_rss_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "MB", 1)
        return report

    # -- traced: the same set-up and phases again, under spans + sampler
    tracer = tracing.Tracer().install()
    sampler = tracing.StackSampler(tracer.recorder)
    sampler.start()
    try:
        setup_spans_from = len(tracer.recorder.spans)
        setup_once(points, trace_root)
        setup_table = sampler.snapshot()
        phase_spans_from = len(tracer.recorder.spans)
        train_before = tracer.train_calls
        traced = timed_phase(jobs, points, refs, passes, ledger, results_root)
        train_calls = tracer.train_calls - train_before
        run_table = tracing.table_delta(sampler.snapshot(), setup_table)
    finally:
        sampler.stop()
        tracer.uninstall()
    spans = tracer.recorder.spans
    setup_spans = spans[setup_spans_from:phase_spans_from]
    phase_spans = spans[phase_spans_from:]

    cold = [s for s in tracing.spans_named(setup_spans, "compile.workload") if s["attrs"]["cold"]]
    compile_cold = sum(tracing.duration(s) for s in cold)
    in_compile = tracing.by_layer(setup_table, "compile.workload")
    generate_share = in_compile.get("workloads", 0.0) / (sum(in_compile.values()) or 1.0)
    warm = [tracing.duration(s) for s in tracing.spans_named(phase_spans, "compile.workload")]
    if any(s["attrs"]["cold"] for s in tracing.spans_named(phase_spans, "compile.workload")):
        raise TrafficError("a traced timed-phase compile missed the trace cache")
    run_s = sum(tracing.duration(s) for s in tracing.spans_named(phase_spans, "engine.run"))
    build_s = sum(tracing.duration(s) for s in tracing.spans_named(phase_spans, "engine.build"))
    layers = tracing.by_layer(run_table, "engine.run")
    sampled = sum(layers.values())
    if abs(sampled - run_s) > INTEGRITY_SHARE * run_s:
        raise TrafficError(
            f"sampled self-times inside engine.run sum to {sampled:.3f}s but "
            f"the spans total {run_s:.3f}s (allowed share {INTEGRITY_SHARE})"
        )
    ctx.note("sampled/engine.run", round(sampled / run_s, 4))
    n_points = len(traced.point_seconds)
    sim = traced.sim
    replay = layers.get("vector.replay", 0.0)
    misspath = layers.get("vector.misspath", 0.0)
    prefetch = layers.get("prefetchers", 0.0)
    executes = [tracing.duration(s) for s in tracing.spans_named(phase_spans, "executor.execute")]
    loads = [tracing.duration(s) for s in tracing.spans_named(phase_spans, "executor.cache_load")]
    stores = [tracing.duration(s) for s in tracing.spans_named(phase_spans, "executor.cache_store")]

    report.add("compile.cold_s", compile_cold, "s", len(cold))
    report.add("workloads.generate_s", compile_cold * generate_share, "s", len(cold))
    report.add("compile.load_s", median(warm), "s", len(warm))
    report.add("engine.build_s", build_s, "s", n_points)
    report.add("engine.run_s", run_s, "s", n_points)
    report.add("engine.self_s", layers.get("engine", 0.0), "s", sampler.samples)
    report.add("import.self_s", layers.get("import", 0.0), "s", sampler.samples)
    report.add("vector.replay.self_s", replay, "s", sampler.samples)
    report.add("vector.classify.self_s", layers.get("vector.classify", 0.0), "s", sampler.samples)
    report.add("vector.replay.ns_per_instr", replay / sim["instructions"] * 1e9, "ns", n_points)
    report.add("vector.misspath.self_s", misspath, "s", sampler.samples)
    report.add("vector.misspath.us_per_l1d_miss", misspath / max(1, sim["l1d_misses"]) * 1e6,
               "us", n_points)
    report.add("memsys.self_s", layers.get("memsys", 0.0), "s", sampler.samples)
    report.add("prefetchers.self_s", prefetch, "s", sampler.samples)
    report.add("prefetchers.train_calls", train_calls, "count", n_points)
    report.add("prefetchers.us_per_train", prefetch / max(1, train_calls) * 1e6, "us", n_points)
    report.add("engine.tier.vectorized", traced.tiers["vectorized"], "count", n_points)
    report.add("engine.tier.demoted", traced.tiers["demoted"], "count", n_points)
    add_sim_metrics(report, sim, n_points)
    report.add("executor.execute_s", median(executes), "s", len(executes))
    report.add("executor.cache_load_s", median(loads), "s", len(loads))
    report.add("executor.cache_store_s", median(stores), "s", len(stores))
    report.add("executor.executed", n_points, "count", n_points)
    report.add("executor.cache_hits", len(loads), "count", len(loads))
    report.add("trace.overhead_share", traced.wall / phase.wall - 1.0, "ratio", 2)
    _zero_serve_metrics(report)
    return report


def add_sim_metrics(report: Report, sim: Dict[str, float], samples: int) -> None:
    report.add("sim.instructions", sim["instructions"], "count", samples)
    report.add("sim.l1d_misses", sim["l1d_misses"], "count", samples)
    report.add("sim.llc_demand_misses", sim["llc_demand_misses"], "count", samples)
    report.add("sim.dram_reads", sim["dram_reads"], "count", samples)
    report.add("sim.prefetches_issued", sim["prefetches_issued"], "count", samples)
    issued = sim["prefetches_issued"]
    report.add("sim.prefetch_accuracy", sim["covered"] / issued if issued else 0.0,
               "ratio", samples)


#: per-layer metrics of the service path; a sweep never reaches them
SERVE_ONLY = (
    ("serve.api.submit_s", "s"), ("serve.api.status_s", "s"),
    ("serve.api.polls_per_job", "count"), ("serve.queue.wait_p50_s", "s"),
    ("serve.queue.wait_tail_s", "s"), ("serve.run_cold_s", "s"),
    ("serve.run_cached_s", "s"), ("executor.guarded_s", "s"),
    ("executor.spawn_s", "s"), ("serve.queue.dedup_hits", "count"),
    ("serve.rejected", "count"),
)
CLUSTER_ONLY = (
    ("serve.cluster.report_s", "s"), ("serve.cluster.shard_load_s", "s"),
    ("serve.cluster.shard_store_s", "s"), ("serve.cluster.shard_hits", "count"),
    ("serve.cluster.leases_granted", "count"), ("serve.cluster.leases_expired", "count"),
    ("serve.cluster.steals", "count"),
)


def _zero_serve_metrics(report: Report) -> None:
    for name, unit in SERVE_ONLY + CLUSTER_ONLY:
        report.add(name, 0.0, unit, 0, "not on this workload")
