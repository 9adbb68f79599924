"""What each workload runs, derived from ``--seed`` alone.

* Sweep points: Table II traces x prefetchers on the experiment system.
* The serve job stream: warm-up jobs, then per client thread a fixed
  sequence of cold, duplicated-cold and cached submissions.
* Reference digests: every point or spec replayed through the general
  loop (``compile=False, vectorized=False``).  Digests of the seeds
  listed in ``refs/<workload>.json`` are kept there; any other seed's
  are computed once, untimed, in separate processes and kept in the
  work directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

DEFAULT_SEED = 1234

SWEEP_WORKLOADS = ("sweep-sparse", "sweep-dense")
SERVE_WORKLOADS = ("serve-node", "serve-cluster")
WORKLOADS = SWEEP_WORKLOADS + SERVE_WORKLOADS

#: fewest L1D misses per instruction among the Table II traces
SPARSE_TRACES = ("streaming", "data_serving", "zeus", "mix1", "mix2")
#: most L1D misses per instruction
DENSE_TRACES = ("sat_solver", "em3d", "mix3", "mix4", "mix5")

#: (instructions per core, warm-up instructions per core)
SWEEP_BUDGET = {"sweep-sparse": (20_000, 5_000), "sweep-dense": (6_000, 1_500)}

SERVE_TRACES = ("streaming", "zeus", "em3d", "mix1", "sat_solver")
#: the orchestrator's default screening rung
SERVE_INSTRUCTIONS = 2_000
SERVE_WARMUP = 500
#: prefetchers with a ``degree`` knob, and the knob's values
KNOBBED_PREFETCHERS = ("nextline", "stride", "bop", "vldp", "ghb", "markov")
DEGREES = (1, 2, 3, 4, 6, 8)
PLAIN_PREFETCHERS = ("spp", "ampm", "sms", "bingo")


def trace_seed(seed: int, trace: str) -> int:
    """The generator seed of ``trace`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}:{trace}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# sweep points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    trace: str
    prefetcher: str
    replacement: str
    instructions: int
    warmup: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.trace}/{self.prefetcher}/{self.replacement}"


def sweep_points(workload: str, seed: int) -> List[Point]:
    instructions, warmup = SWEEP_BUDGET[workload]

    def point(trace: str, prefetcher: str, replacement: str = "lru") -> Point:
        return Point(trace, prefetcher, replacement, instructions, warmup,
                     trace_seed(seed, trace))

    if workload == "sweep-sparse":
        return [point(t, p) for t in SPARSE_TRACES for p in ("none", "bop")]
    if workload == "sweep-dense":
        points = [point(t, p) for t in DENSE_TRACES for p in ("none", "bingo", "sms")]
        points.append(point("oscillate", "none"))
        # the one point whose LLC policy keeps the miss path in fallback
        # mode, so the vector tier demotes to the compiled loop
        points.append(point("zipf", "none", "arc"))
        return points
    raise ValueError(f"not a sweep workload: {workload!r}")


def sweep_job(point: Point):
    from repro.experiments.common import experiment_system
    from repro.sim import SimJob

    return SimJob.build(
        point.trace,
        point.prefetcher,
        system=experiment_system(),
        instructions_per_core=point.instructions,
        warmup_instructions=point.warmup,
        seed=point.seed,
        replacement=point.replacement,
    )


# ---------------------------------------------------------------------------
# the serve job stream
# ---------------------------------------------------------------------------


def wire_spec(trace: str, seed: int, prefetcher: str, kwargs: Optional[Dict] = None) -> Dict:
    return {
        "workload": trace,
        "prefetcher": prefetcher,
        "prefetcher_kwargs": dict(kwargs or {}),
        "instructions": SERVE_INSTRUCTIONS,
        "warmup": SERVE_WARMUP,
        "seed": trace_seed(seed, trace),
        "system": "experiment",
    }


@dataclass(frozen=True)
class Op:
    """One client submission: ``cold`` (a spec not yet run), ``dup`` (a
    cold spec posted twice in one batch) or ``cached`` (a spec this
    client already saw finish)."""

    kind: str
    spec: Dict


@dataclass
class ServePlan:
    warmups: List[Dict]
    threads: List[List[Op]]

    def count(self, kind: str) -> int:
        return sum(op.kind == kind for ops in self.threads for op in ops)

    @property
    def executed(self) -> int:
        return self.count("cold") + self.count("dup")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def dedup_hits(self) -> int:
        return self.count("dup")

    @property
    def submissions(self) -> int:
        return self.executed + self.cached + self.dedup_hits

    def specs(self) -> List[Dict]:
        seen = {}
        for spec in self.warmups + [op.spec for ops in self.threads for op in ops]:
            seen.setdefault(json.dumps(spec, sort_keys=True), spec)
        return list(seen.values())


def serve_pool(seed: int) -> List[Dict]:
    pool = []
    for trace in SERVE_TRACES:
        for prefetcher in KNOBBED_PREFETCHERS:
            for degree in DEGREES:
                pool.append(wire_spec(trace, seed, prefetcher, {"degree": degree}))
        for prefetcher in PLAIN_PREFETCHERS:
            pool.append(wire_spec(trace, seed, prefetcher))
    return pool


#: closed-loop rounds per client per second of --seconds, sized on a
#: 2-vCPU host so the timed phase lasts about --seconds
SERVE_CYCLES_PER_S = {"serve-node": 1.3, "serve-cluster": 1.2}


def serve_cycles(workload: str, seconds: float) -> int:
    # at least 3 rounds, so a run has more than 10 cold jobs for the tail
    return max(3, int(round(seconds * SERVE_CYCLES_PER_S[workload])))


def serve_plan(seed: int, cycles: int, clients: int = 2) -> ServePlan:
    """Each client runs ``cycles`` rounds of (cold, cold, cached); the
    first cold job of every third round is posted twice in one batch."""
    rng = random.Random(seed)
    pool = serve_pool(seed)
    rng.shuffle(pool)
    needed = 2 * cycles * clients
    if needed > len(pool):
        raise ValueError(
            f"{cycles} cycles x {clients} clients need {needed} distinct "
            f"cold specs; the pool holds {len(pool)} (shorten --seconds)"
        )
    threads = []
    for _ in range(clients):
        ops: List[Op] = []
        done: List[Dict] = []
        for cycle in range(cycles):
            for position in range(2):
                spec = pool.pop()
                kind = "dup" if position == 0 and cycle % 3 == 0 else "cold"
                ops.append(Op(kind, spec))
                done.append(spec)
            ops.append(Op("cached", rng.choice(done)))
        threads.append(ops)
    warmups = [wire_spec(trace, seed, "none") for trace in SERVE_TRACES]
    return ServePlan(warmups=warmups, threads=threads)


# ---------------------------------------------------------------------------
# reference digests
# ---------------------------------------------------------------------------


def spec_key(job) -> str:
    """Identity of a job's simulated behaviour, independent of code
    versions (which the executor's cache digest folds in)."""
    payload = json.dumps(job.spec(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def job_for_spec(spec: Dict):
    from repro.serve.jobs import job_from_wire

    return job_from_wire(spec)


def workload_jobs(workload: str, seed: int, seconds: float) -> List:
    """Every job whose result the workload checks."""
    if workload in SWEEP_WORKLOADS:
        return [sweep_job(point) for point in sweep_points(workload, seed)]
    plan = serve_plan(seed, serve_cycles(workload, seconds))
    return [job_for_spec(spec) for spec in plan.specs()]


def compute_references(jobs: Sequence) -> Dict[str, str]:
    """Run every job through the general loop; spec key -> result digest."""
    from repro.sim import execute_job

    from perfbench.stats import result_digest

    out = {}
    for job in jobs:
        reference = dataclasses.replace(job, compile=False, vectorized=False)
        out[spec_key(job)] = result_digest(execute_job(reference).to_dict())
    return out


class References:
    """Kept digests (``refs/<workload>.json``, keyed by seed) plus the
    work directory's digests for seeds computed earlier."""

    def __init__(self, bench_dir: str, work_dir: str, workload: str, seed: int) -> None:
        self.kept_path = os.path.join(bench_dir, "refs", f"{workload}.json")
        self.work_path = os.path.join(work_dir, "refs", f"{workload}-{seed}.json")
        self.digests: Dict[str, str] = {}
        if os.path.exists(self.kept_path):
            with open(self.kept_path, encoding="utf-8") as handle:
                self.digests.update(json.load(handle).get(str(seed), {}))
        if os.path.exists(self.work_path):
            with open(self.work_path, encoding="utf-8") as handle:
                self.digests.update(json.load(handle))

    def missing(self, jobs: Sequence) -> List:
        return [job for job in jobs if spec_key(job) not in self.digests]

    def add(self, digests: Dict[str, str]) -> None:
        self.digests.update(digests)
        os.makedirs(os.path.dirname(self.work_path), exist_ok=True)
        with open(self.work_path, "w", encoding="utf-8") as handle:
            json.dump(self.digests, handle, indent=0, sort_keys=True)

    def get(self, job) -> Optional[str]:
        return self.digests.get(spec_key(job))


def ensure_references(refs: References, jobs: Sequence) -> int:
    """Compute the missing digests in fresh processes (so the general
    loop's memory never shows in this process's peak RSS), two at a
    time since this phase is not timed; returns how many were computed.

    The children are plain ``subprocess`` children that this process
    waits for on every path out, killing them first if it is leaving
    early: a ``multiprocessing`` spawn pool would also start a resource
    tracker process that outlives the run.
    """
    missing = refs.missing(jobs)
    if not missing:
        return 0
    workers = max(1, min(2, os.cpu_count() or 1, len(missing)))
    tmp_dir = os.path.join(os.path.dirname(refs.work_path), f"compute-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    children = []
    digests: Dict[str, str] = {}
    try:
        for index in range(workers):
            jobs_path = os.path.join(tmp_dir, f"jobs-{index}.pickle")
            with open(jobs_path, "wb") as handle:
                pickle.dump(missing[index::workers], handle)
            out_path = os.path.join(tmp_dir, f"digests-{index}.json")
            # the child finds ``perfbench`` and ``repro`` through the
            # PYTHONPATH that ``run.py`` exported
            command = [sys.executable, "-c",
                       "import sys; from perfbench.specs import reference_child; "
                       "reference_child(sys.argv[1], sys.argv[2])",
                       jobs_path, out_path]
            children.append((subprocess.Popen(command, stdout=subprocess.DEVNULL),
                             out_path))
        for child, out_path in children:
            if child.wait() != 0:
                raise RuntimeError(
                    f"reference digests: child exited with {child.returncode}")
            with open(out_path, encoding="utf-8") as handle:
                digests.update(json.load(handle))
    finally:
        for child, _ in children:
            if child.poll() is None:
                child.kill()
            child.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)
    refs.add(digests)
    return len(missing)


def reference_child(jobs_path: str, out_path: str) -> None:
    """Entry point of one child of :func:`ensure_references`."""
    with open(jobs_path, "rb") as handle:
        jobs = pickle.load(handle)
    digests = compute_references(jobs)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle)


def write_kept_references(workload: str, seeds: Sequence[int], seconds: float,
                          bench_dir: str) -> str:
    """Recompute ``seeds`` in ``refs/<workload>.json``, keeping its other
    seeds; returns the file's path."""
    path = os.path.join(bench_dir, "refs", f"{workload}.json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    for seed in seeds:
        data[str(seed)] = compute_references(workload_jobs(workload, seed, seconds))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
