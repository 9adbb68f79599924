"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-sparse --seed 1234 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/`` there and fails (exit 2) when that tree is absent.  Every
cache, reference digest, span file and run record it writes stays in
``.perfbench_work/`` under the checkout.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it are the human-readable table (each
metric with its unit and sample count) and the run's provenance.

Maintenance: ``--write-refs`` recomputes the kept reference digests of
a workload (``perfbench/refs/<workload>.json``) for the given seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"


class Context:
    """Parsed arguments plus the run's shared state."""

    def __init__(self, args) -> None:
        from perfbench.stats import Ledger

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.bench_dir = str(BENCH_DIR)
        #: this run's working files (caches, span files); removed at exit
        self.work_dir = str(WORK_DIR / f"{self.workload}-{os.getpid()}")
        #: kept across runs: reference digests of seeds seen before
        self.shared_dir = str(WORK_DIR)
        self.ledger = Ledger()
        self.notes = {}

    def note(self, key: str, value) -> None:
        self.notes[key] = value


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD of the checkout, or None unless the checkout is itself the
    root of a git work tree (not a directory inside another one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(ctx: Context) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", nargs="*", type=int, metavar="SEED",
                        help="recompute the kept reference digests for these seeds")
    return parser.parse_args(argv)


def _exit_on_signal(signum, frame) -> None:
    # unwind through the ``finally`` blocks that stop the daemons and
    # the reference-digest children
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    from perfbench import specs

    benchmark = _benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.workload not in specs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(specs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_refs is not None:
        seeds = args.write_refs or [specs.DEFAULT_SEED]
        path = specs.write_kept_references(args.workload, seeds, args.seconds,
                                           str(BENCH_DIR))
        print(f"wrote seeds {', '.join(map(str, seeds))} to {path}")
        return 0

    ctx = Context(args)
    os.makedirs(ctx.work_dir, exist_ok=True)
    # the program's caches live in the checkout, never in $HOME
    os.environ["REPRO_CACHE_DIR"] = os.path.join(ctx.work_dir, "cache")
    from perfbench.stats import TrafficError

    declared = [(m["name"], m["unit"])
                for m in benchmark["per_layer" if ctx.trace else "end_to_end"]]
    try:
        if args.workload in specs.SWEEP_WORKLOADS:
            from perfbench import sweeps as runner
        else:
            from perfbench import service as runner
        report = runner.run(ctx)
    except TrafficError as exc:
        print(f"error: traffic check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)

    ledger = ctx.ledger
    report.add("failed_share", ledger.failed_share, "ratio", ledger.attempted,
               ", ".join(f"{k}={v}" for k, v in sorted(ledger.reasons.items())))
    record = {
        "provenance": provenance(ctx),
        "notes": ctx.notes,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples, "note": m.note}
            for name, m in report.metrics.items()
        },
    }
    runs = WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(runs / f"{stamp}-{ctx.workload}-s{ctx.seed}-t{int(ctx.trace)}-{os.getpid()}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for line in report.table():
        print(line)
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    if ctx.notes:
        print("# notes " + json.dumps(ctx.notes, sort_keys=True))
    print(report.result_line(declared, ledger, correct=ledger.failed == 0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
