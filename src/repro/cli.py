"""The ``bingo-sim`` command-line interface.

Subcommands:

* ``list`` — available workloads and prefetchers.
* ``run`` — one workload under one prefetcher; prints the summary.
  ``--trace out.jsonl`` records the decision/event trace, ``--timeline N``
  prints per-phase IPC/MPKI/coverage curves, ``--profile`` shows the
  simulator's own hot spots (see ``docs/observability.md``).
* ``compare`` — one workload under several prefetchers + baseline.
* ``sweep`` — one (workload, prefetcher) across values of one parameter,
  fanned out over ``--workers`` processes with on-disk result caching
  (``--no-cache`` to disable, ``REPRO_CACHE_DIR`` to relocate);
  ``--check`` runs every point under the strict invariant checker and
  bypasses the cache.
* ``experiment`` — regenerate a paper table/figure by id (e.g. ``fig8``;
  ``--workers N`` parallelises the underlying run matrix), or — with
  ``--space`` — submit a parameter *space* to a running daemon for
  adaptive search: successive-halving rounds screen the grid with cheap
  short traces and promote only the top fraction to full length
  (see ``docs/service.md``).
* ``check`` — differential correctness harness: replays a (workload ×
  prefetcher) matrix against untimed reference models plus the runtime
  invariant checker, holds the fast loop to the general loop, and
  reports the first divergence, if any (``docs/correctness.md``).
* ``serve`` — run the simulation daemon: async job queue + HTTP API
  with shared caches, retries, timeouts, and graceful SIGTERM drain
  (see ``docs/service.md``).
* ``submit`` — send one job to a running daemon (``--wait`` polls it to
  completion and prints the summary).
* ``jobs`` — list a daemon's jobs, show one record, or (``--metrics``)
  dump its counters.  ``$REPRO_SERVE_URL`` overrides the default URL.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    PAPER_PREFETCHERS,
    default_params,
    experiment_system,
)
from repro.memsys.replacement import available_replacements
from repro.prefetchers.registry import available_prefetchers
from repro.sim.results import speedup
from repro.sim.runner import compare_prefetchers, run_simulation
from repro.workloads.registry import available_workloads

#: experiment id -> driver module (each has run()/format_results())
EXPERIMENTS = {
    "table1": "repro.experiments.table1_config",
    "table2": "repro.experiments.table2_mpki",
    "fig2": "repro.experiments.fig2_events",
    "fig3": "repro.experiments.fig3_num_events",
    "fig4": "repro.experiments.fig4_redundancy",
    "fig6": "repro.experiments.fig6_storage",
    "fig7": "repro.experiments.fig7_coverage",
    "fig8": "repro.experiments.fig8_performance",
    "fig9": "repro.experiments.fig9_density",
    "fig10": "repro.experiments.fig10_isodegree",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bingo-sim",
        description="Bingo spatial prefetcher reproduction (HPCA 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, prefetchers, experiments")

    run_p = sub.add_parser("run", help="run one workload under one prefetcher")
    run_p.add_argument("--workload", "-w", required=True)
    run_p.add_argument("--prefetcher", "-p", default="bingo")
    run_p.add_argument("--instructions", type=int, default=None,
                       help="instructions per core (default: experiment params)")
    run_p.add_argument("--warmup", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=1234)
    run_p.add_argument("--baseline", action="store_true",
                       help="also run the no-prefetcher baseline for speedup")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a JSONL event trace (prefetch issues, "
                            "demand hits/misses, vote decisions, evictions)")
    run_p.add_argument("--trace-limit", type=int, default=0, metavar="N",
                       help="stop tracing after N events (default: all)")
    run_p.add_argument("--timeline", type=int, default=0, metavar="N",
                       help="sample per-phase IPC/MPKI/coverage every N "
                            "retired instructions and print the curve")
    run_p.add_argument("--timeline-export", metavar="PATH", default=None,
                       help="also write the timeline rows to PATH "
                            "(.csv or .json; requires --timeline)")
    run_p.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the hottest "
                            "functions (simulator performance debugging)")
    run_p.add_argument("--replacement", default="lru",
                       choices=available_replacements(),
                       help="LLC replacement policy (default: lru; 'opt' "
                            "is the Belady oracle)")

    cmp_p = sub.add_parser("compare", help="compare prefetchers on a workload")
    cmp_p.add_argument("--workload", "-w", required=True)
    cmp_p.add_argument("--prefetchers", "-p", nargs="+",
                       default=list(PAPER_PREFETCHERS))
    cmp_p.add_argument("--instructions", type=int, default=None)
    cmp_p.add_argument("--warmup", type=int, default=None)
    cmp_p.add_argument("--seed", type=int, default=1234)
    cmp_p.add_argument("--workers", type=int, default=1,
                       help="worker processes for the independent runs")
    cmp_p.add_argument("--replacement", default="lru",
                       choices=available_replacements(),
                       help="LLC replacement policy for every run "
                            "(default: lru)")

    sweep_p = sub.add_parser(
        "sweep", help="sweep one prefetcher parameter over several values"
    )
    sweep_p.add_argument("--workload", "-w", required=True)
    sweep_p.add_argument("--prefetcher", "-p", default="bingo")
    sweep_p.add_argument("--parameter", required=True,
                         help="prefetcher keyword to vary "
                              "(e.g. history_entries, degree)")
    sweep_p.add_argument("--values", nargs="+", required=True,
                         help="values to sweep (parsed as int/float when "
                              "possible)")
    sweep_p.add_argument("--instructions", type=int, default=None)
    sweep_p.add_argument("--warmup", type=int, default=None)
    sweep_p.add_argument("--seed", type=int, default=1234)
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes for the sweep points")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="skip the on-disk result cache "
                              "($REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep_p.add_argument("--check", action="store_true",
                         help="run every sweep point under the strict "
                              "runtime invariant checker (bypasses the "
                              "result cache)")
    sweep_p.add_argument("--replacement", default="lru",
                         choices=available_replacements(),
                         help="LLC replacement policy for every sweep "
                              "point (default: lru)")

    check_p = sub.add_parser(
        "check",
        help="differential correctness check against reference models",
    )
    check_p.add_argument("--workload", "-w", action="append", default=None,
                         dest="workloads", metavar="NAME",
                         help="workload to check; repeatable (default: "
                              "streaming, em3d, data_serving)")
    check_p.add_argument("--prefetcher", "-p", action="append", default=None,
                         dest="prefetchers", metavar="NAME",
                         help="prefetcher to check; repeatable (default: "
                              "bingo, sms, bop, spp)")
    check_p.add_argument("--instructions", type=int, default=8000,
                         help="instructions per core (default: 8000)")
    check_p.add_argument("--warmup", type=int, default=1000)
    check_p.add_argument("--seed", type=int, default=11)
    check_p.add_argument("--scale", type=float, default=0.02,
                         help="workload footprint scale (default: 0.02)")
    check_p.add_argument("--replacement", default="lru",
                         choices=available_replacements(),
                         help="LLC replacement policy for the checked "
                              "runs; the untimed reference caches track "
                              "residency from the live event stream, so "
                              "any policy can be checked (default: lru)")

    from repro.serve.api import DEFAULT_PORT

    serve_p = sub.add_parser(
        "serve", help="run the simulation service daemon (docs/service.md)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="parallel worker slots (each its own process)")
    serve_p.add_argument("--timeout", type=float, default=300.0,
                         help="per-job wall-clock budget in seconds "
                              "(0 disables; overdue workers are killed)")
    serve_p.add_argument("--retries", type=int, default=3,
                         help="max executions per job (crashes/timeouts "
                              "retry with exponential backoff)")
    serve_p.add_argument("--state-dir", default=None, metavar="DIR",
                         help="persist the pending queue here on SIGTERM "
                              "and restore it on the next start")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the shared on-disk result cache")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result cache root (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro); local "
                              "slots and cluster agents share it")
    serve_p.add_argument("--max-queue-depth", type=int, default=0,
                         help="admission bound on pending jobs: beyond "
                              "it POST /jobs answers 429 + Retry-After "
                              "(0 = unbounded, the default)")
    serve_p.add_argument("--lease-ttl", type=float, default=30.0,
                         help="cluster lease lifetime in seconds; a "
                              "worker silent this long loses its jobs "
                              "to the reclaim path")
    serve_p.add_argument("--quiet", action="store_true",
                         help="suppress startup/drain log lines")

    worker_p = sub.add_parser(
        "worker",
        help="run a cluster worker agent against a frontend daemon "
             "(docs/service.md, §Cluster)",
    )
    worker_p.add_argument("--connect", required=True, metavar="URL",
                          help="frontend base URL, e.g. "
                               f"http://127.0.0.1:{DEFAULT_PORT}")
    worker_p.add_argument("--node-id", default=None,
                          help="stable node name (default: "
                               "<host>-<pid>-<nonce>)")
    worker_p.add_argument("--capacity", type=int, default=1,
                          help="concurrent leases to execute (each its "
                               "own process slot)")
    worker_p.add_argument("--timeout", type=float, default=300.0,
                          help="per-job wall-clock budget in seconds "
                               "(0 disables)")
    worker_p.add_argument("--no-cache", action="store_true",
                          help="disable the node-local result cache tier")
    worker_p.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="node-local result cache root (default: "
                               "$REPRO_CACHE_DIR or ~/.cache/repro)")
    worker_p.add_argument("--quiet", action="store_true",
                          help="suppress startup/stop log lines")

    default_url = f"http://127.0.0.1:{DEFAULT_PORT}"
    submit_p = sub.add_parser(
        "submit", help="submit a job to a running service daemon"
    )
    submit_p.add_argument("--workload", "-w", required=True)
    submit_p.add_argument("--prefetcher", "-p", default="bingo")
    submit_p.add_argument("--instructions", type=int, default=None)
    submit_p.add_argument("--warmup", type=int, default=None)
    submit_p.add_argument("--seed", type=int, default=1234)
    submit_p.add_argument("--priority", type=int, default=0,
                          help="higher runs sooner (default 0)")
    submit_p.add_argument("--url", default=None,
                          help=f"service base URL (default: "
                               f"$REPRO_SERVE_URL or {default_url})")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print "
                               "the result summary")
    submit_p.add_argument("--wait-timeout", type=float, default=600.0)

    jobs_p = sub.add_parser(
        "jobs", help="inspect a running service daemon's jobs"
    )
    jobs_p.add_argument("id", nargs="?", default=None,
                        help="job id to show in full (default: list all)")
    jobs_p.add_argument("--url", default=None,
                        help=f"service base URL (default: "
                             f"$REPRO_SERVE_URL or {default_url})")
    jobs_p.add_argument("--metrics", action="store_true",
                        help="print the service's counters instead")

    exp_p = sub.add_parser(
        "experiment",
        help="regenerate a paper table/figure, or run an adaptive "
             "search on a daemon (--space)",
    )
    exp_p.add_argument("id", nargs="?", default=None,
                       help="paper table/figure id to regenerate "
                            f"({', '.join(sorted(EXPERIMENTS))}); "
                            "omit when using --space")
    exp_p.add_argument("--export", metavar="PATH", default=None,
                       help="also write the rows to PATH (.csv or .json)")
    exp_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for the run matrix "
                            "(default: $REPRO_WORKERS or 1)")
    exp_p.add_argument("--space", metavar="JSON|@FILE", default=None,
                       help="adaptive search: a parameter-space object "
                            "(inline JSON, or @path to a JSON file) "
                            "screened by successive halving, each round "
                            "run as jobs on a running daemon "
                            "(docs/service.md)")
    exp_p.add_argument("--objective", default="ipc",
                       help="metric to optimise: ipc, coverage, accuracy, "
                            "mpki, overprediction (default: ipc)")
    exp_p.add_argument("--screen", type=int, default=2000,
                       help="instructions per core for the cheapest "
                            "screening rung (default: 2000)")
    exp_p.add_argument("--full", type=int, default=20000,
                       help="instructions per core for the final "
                            "full-length rung (default: 20000)")
    exp_p.add_argument("--eta", type=float, default=2.0,
                       help="halving rate: budgets grow and survivors "
                            "shrink by this factor per round (default: 2)")
    exp_p.add_argument("--cutoff", type=float, default=None,
                       help="absolute early-stop bar on the objective; "
                            "candidates failing it are dropped even "
                            "inside the keep fraction")
    exp_p.add_argument("--priority", type=int, default=0,
                       help="queue priority for the experiment's jobs")
    exp_p.add_argument("--url", default=None,
                       help=f"service base URL (default: "
                            f"$REPRO_SERVE_URL or {default_url})")
    exp_p.add_argument("--wait-timeout", type=float, default=1800.0,
                       help="seconds the whole search may take "
                            "(default: 1800)")
    return parser


def _params(args) -> tuple:
    params = default_params()
    instructions = args.instructions or params.instructions_per_core
    warmup = args.warmup if args.warmup is not None else params.warmup_instructions
    return instructions, warmup


def _cmd_list() -> int:
    print("workloads:   ", " ".join(available_workloads()))
    print("prefetchers: ", " ".join(available_prefetchers()))
    print("replacement: ", " ".join(available_replacements()))
    print("experiments: ", " ".join(sorted(EXPERIMENTS)))
    return 0


def _cmd_run(args) -> int:
    from repro.obs import ObservabilityConfig, profile_call

    if args.timeline_export and not args.timeline:
        print("error: --timeline-export requires --timeline N", file=sys.stderr)
        return 2
    instructions, warmup = _params(args)
    obs = ObservabilityConfig(
        trace_path=args.trace,
        trace_limit=args.trace_limit,
        timeline_interval=args.timeline,
    )
    kwargs = dict(
        system=experiment_system(),
        instructions_per_core=instructions,
        warmup_instructions=warmup,
        seed=args.seed,
        scale=EXPERIMENT_SCALE,
        replacement=args.replacement,
    )

    def simulate():
        return run_simulation(
            args.workload, prefetcher=args.prefetcher, obs=obs, **kwargs
        )

    result = profile_call(simulate, top=15) if args.profile else simulate()
    rows = [dict(metric=k, value=round(v, 4)) for k, v in result.summary().items()]
    if args.baseline and args.prefetcher != "none":
        baseline = run_simulation(args.workload, prefetcher="none", **kwargs)
        rows.append(dict(metric="speedup", value=round(speedup(result, baseline), 4)))
    print(format_table(rows, title=f"{args.workload} / {args.prefetcher}"))

    if args.timeline:
        curve_rows = [
            {
                metric: round(number, 4)
                for metric, number in row.items()
                if metric in ("instructions", "ipc", "mpki", "coverage",
                              "accuracy", "prefetches_issued")
            }
            for row in result.timeline_curves()
        ]
        print()
        print(
            format_table(
                curve_rows,
                title=f"timeline (every {args.timeline} instructions)",
            )
        )
        if args.timeline_export:
            from repro.analysis.export import export_timeline

            path = export_timeline(args.timeline_export, result)
            print(f"\ntimeline exported to {path}")
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as fh:
            events = sum(1 for line in fh if line.strip())
        print(f"\ntrace: {events} events written to {args.trace}")
    return 0


def _cmd_compare(args) -> int:
    instructions, warmup = _params(args)
    results = compare_prefetchers(
        args.workload,
        args.prefetchers,
        system=experiment_system(),
        instructions_per_core=instructions,
        warmup_instructions=warmup,
        seed=args.seed,
        scale=EXPERIMENT_SCALE,
        workers=args.workers,
        replacement=args.replacement,
    )
    baseline = results["none"]
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "prefetcher": name,
                "speedup": round(speedup(result, baseline), 3),
                "coverage": result.coverage,
                "accuracy": result.accuracy,
                "overprediction": result.overprediction,
            }
        )
    print(
        format_table(
            rows,
            title=f"prefetcher comparison on {args.workload}",
            percent_columns=["coverage", "accuracy", "overprediction"],
        )
    )
    return 0


def _parse_value(text: str):
    """CLI sweep values: int where possible, then float, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_sweep(args) -> int:
    from repro.sim.executor import Executor, ResultCache
    from repro.sim.sweep import sweep_prefetcher_parameter

    instructions, warmup = _params(args)
    values = [_parse_value(text) for text in args.values]
    executor = Executor(
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        check=args.check,
    )
    results = sweep_prefetcher_parameter(
        args.workload,
        prefetcher=args.prefetcher,
        parameter=args.parameter,
        values=values,
        system=experiment_system(),
        instructions_per_core=instructions,
        warmup_instructions=warmup,
        seed=args.seed,
        scale=EXPERIMENT_SCALE,
        executor=executor,
        replacement=args.replacement,
    )
    rows = []
    for value, result in results.items():
        row = {args.parameter: value}
        row.update(
            (metric, round(number, 4))
            for metric, number in result.summary().items()
        )
        rows.append(row)
    print(
        format_table(
            rows,
            title=(
                f"{args.prefetcher} on {args.workload}: "
                f"sweep of {args.parameter}"
            ),
        )
    )
    stats = executor.stats
    print(
        f"\nexecutor: {stats.get('jobs')} jobs, "
        f"{stats.get('cache_hits')} cache hits, "
        f"{stats.get('executed')} executed "
        f"({stats.get('run_seconds'):.2f}s, {args.workers} workers)"
    )
    compile_hits = stats.get("trace_compile_hits")
    compile_misses = stats.get("trace_compile_misses")
    if compile_hits or compile_misses:
        print(
            f"compiled traces: {compile_misses:.0f} compiled, "
            f"{compile_hits:.0f} cache hits"
        )
    return 0


def _cmd_check(args) -> int:
    from repro.check import run_check

    workloads = args.workloads or ["streaming", "em3d", "data_serving"]
    prefetchers = args.prefetchers or ["bingo", "sms", "bop", "spp"]
    failures = 0
    for workload in workloads:
        for prefetcher in prefetchers:
            report = run_check(
                workload,
                prefetcher=prefetcher,
                instructions_per_core=args.instructions,
                warmup_instructions=args.warmup,
                seed=args.seed,
                scale=args.scale,
                replacement=args.replacement,
            )
            print(report.summary())
            if not report.ok:
                failures += 1
    total = len(workloads) * len(prefetchers)
    if failures:
        print(f"\nFAIL: {failures}/{total} checks diverged", file=sys.stderr)
        return 1
    print(f"\nOK: {total} checks, no divergences")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import RetryPolicy, ServiceConfig, run_server

    config = ServiceConfig(
        workers=args.workers,
        job_timeout=args.timeout,
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
        state_dir=args.state_dir,
        cache_dir=None if args.no_cache else (args.cache_dir or ""),
        max_queue_depth=max(0, args.max_queue_depth),
        lease_ttl=args.lease_ttl,
    )
    run_server(
        config,
        host=args.host,
        port=args.port,
        verbose=not args.quiet,
    )
    return 0


def _cmd_worker(args) -> int:
    from repro.serve import ServiceUnavailable, WireVersionError, run_worker

    try:
        run_worker(
            args.connect,
            node_id=args.node_id,
            capacity=max(1, args.capacity),
            job_timeout=args.timeout,
            cache_dir=None if args.no_cache else (args.cache_dir or ""),
            verbose=not args.quiet,
        )
    except (WireVersionError, ServiceUnavailable, SystemExit) as exc:
        print(f"error: worker stopped: {exc}", file=sys.stderr)
        return 1
    return 0


def _serve_url(args) -> str:
    import os

    from repro.serve.api import DEFAULT_PORT

    if args.url:
        return args.url
    return os.environ.get(
        "REPRO_SERVE_URL", f"http://127.0.0.1:{DEFAULT_PORT}"
    )


def _cmd_submit(args) -> int:
    from repro.serve import ServiceClient, ServiceError

    instructions, warmup = _params(args)
    spec = {
        "workload": args.workload,
        "prefetcher": args.prefetcher,
        "instructions": instructions,
        "warmup": warmup,
        "seed": args.seed,
        "scale": EXPERIMENT_SCALE,
        "system": "experiment",
    }
    client = ServiceClient(_serve_url(args))
    try:
        accepted = client.submit(spec, priority=args.priority)
    except (ServiceError, OSError) as exc:
        print(f"error: submit failed: {exc}", file=sys.stderr)
        return 1
    dedup = " (deduplicated onto in-flight job)" if accepted["deduped"] else ""
    print(f"job {accepted['id']} {accepted['state']}{dedup}")
    if not args.wait:
        return 0
    try:
        record = client.wait(accepted["id"], timeout=args.wait_timeout)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"error: wait failed: {exc}", file=sys.stderr)
        return 1
    if record["state"] != "done":
        print(f"job {record['id']} failed: {record.get('error')}",
              file=sys.stderr)
        return 1
    rows = [dict(metric=k, value=round(v, 4))
            for k, v in record["summary"].items()]
    print(format_table(rows, title=f"{args.workload} / {args.prefetcher}"))
    return 0


def _cmd_jobs(args) -> int:
    import json as _json

    from repro.serve import ServiceClient, ServiceError

    client = ServiceClient(_serve_url(args))
    try:
        if args.metrics:
            print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if args.id:
            print(_json.dumps(client.status(args.id), indent=2))
            return 0
        records = client.jobs()
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print("no jobs")
        return 0
    rows = [
        {
            "id": r["id"],
            "state": r["state"],
            "workload": r["job"]["workload"],
            "prefetcher": r["job"]["prefetcher"],
            "priority": r["priority"],
            "attempts": r["attempts"],
        }
        for r in records
    ]
    print(format_table(rows, title=f"jobs at {client.base_url}"))
    return 0


def _cmd_experiment_space(args) -> int:
    """The ``--space`` path: successive halving against a running daemon."""
    import json as _json

    from repro.serve import (
        HalvingSchedule,
        Objective,
        OrchestrationError,
        ServiceClient,
        ServiceError,
        run_halving,
        space_from_wire,
    )

    text = args.space
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read space file: {exc}", file=sys.stderr)
            return 2
    try:
        payload = _json.loads(text)
    except ValueError as exc:
        print(f"error: --space is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        space = space_from_wire(payload)
        schedule = HalvingSchedule(
            screen_instructions=args.screen,
            full_instructions=args.full,
            eta=args.eta,
            cutoff=args.cutoff,
        )
        objective = Objective(args.objective)
        print(
            f"experiment: {len(space.points())} points, "
            f"rungs {schedule.rungs()}"
        )
        search = run_halving(
            ServiceClient(_serve_url(args)),
            space,
            schedule,
            objective,
            priority=args.priority,
            timeout=args.wait_timeout,
        )
    except (ValueError, TypeError) as exc:
        print(f"error: bad experiment: {exc}", file=sys.stderr)
        return 2
    except (ServiceError, OrchestrationError, OSError) as exc:
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    for round_report in search["rounds"]:
        print(
            f"round {round_report['round']}: "
            f"{round_report['instructions']} instructions, "
            f"{round_report['candidates']} candidates -> "
            f"{len(round_report['promoted'])} promoted"
        )
    winner = search["winner"]
    spec = winner["spec"]
    rows = [
        dict(field="workload", value=spec["workload"]),
        dict(field="prefetcher", value=spec["prefetcher"]),
        dict(field="knobs", value=_json.dumps(spec.get("prefetcher_kwargs", {}))),
        dict(field=winner["metric"], value=round(winner["score"], 4)),
        dict(field="job", value=winner["job_id"]),
    ]
    print(format_table(rows, title="experiment winner"))
    return 0


def _cmd_experiment(args) -> int:
    if args.space is not None:
        return _cmd_experiment_space(args)
    if args.id is None:
        print("error: experiment needs an id or --space", file=sys.stderr)
        return 2
    if args.id not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.id!r} "
            f"(choose from {', '.join(sorted(EXPERIMENTS))})",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None:
        import os

        os.environ["REPRO_WORKERS"] = str(args.workers)
    module = importlib.import_module(EXPERIMENTS[args.id])
    rows = module.run()
    print(module.format_results(rows))
    if args.export:
        from repro.analysis.export import export_rows

        path = export_rows(args.export, rows, experiment=args.id)
        print(f"\nrows exported to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
