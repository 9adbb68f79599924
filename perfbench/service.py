"""The service workloads: the real ``bingo-sim serve`` daemon over HTTP.

``serve-node`` runs ``serve --workers 2``; ``serve-cluster`` runs a
frontend-only ``serve --workers 0`` and two ``worker --capacity 1``
agents with separate result caches.  All processes share one trace
cache, which set-up warms with one job per trace.

The load is a closed loop: two client threads, each sending its next
job only after its previous job finished, the way ``bingo-sim submit``,
sweep clients and the orchestrator behave.  A job's latency runs from
the POST leaving the client to the daemon's recorded ``finished_at``
(same host clock), so the fixed poll interval only decides when the
client learns of it, not the number.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perfbench import specs, tracing
from perfbench.stats import (
    UNBOUNDED,
    Ledger,
    Report,
    TrafficError,
    median,
    in_reference_seconds,
    result_digest,
    tail,
)
from perfbench.sweeps import (
    REFERENCE_ITERATIONS,
    REFERENCE_RATE,
    add_sim_metrics,
    reference_loop,
    sim_counts,
)

SETUP_REPS = 3
#: each client thread's fixed, unjittered poll interval; they differ so
#: the two clients' poll instants drift through every relative phase
#: instead of locking at whatever offset a run happens to start with
POLL_INTERVALS = (0.095, 0.105)
#: a job not finished this long after its POST counts as timed out
JOB_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
AGENTS = 2
#: seconds between two runs of the reference loop during a timed phase
REFERENCE_INTERVAL = 0.25


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Http:
    """JSON over a fresh connection per request, as ``ServiceClient``
    (``urllib``) does: a kept-alive connection would also time the
    delayed-ACK stall of the server's two-write responses."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: Any = None):
        """``(status, payload, seconds)``."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        seconds = time.perf_counter() - start
        return response.status, (json.loads(raw) if raw else {}), seconds


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Topology:
    """The daemon (and agents) of one set-up, in a directory of its own."""

    def __init__(self, ctx, index: int, traced: bool) -> None:
        self.cluster = ctx.workload == "serve-cluster"
        self.dir = os.path.join(ctx.work_dir, f"topology-{index}")
        self.traced = traced
        self.span_dir = os.path.join(self.dir, "spans")
        self.launcher = os.path.join(ctx.bench_dir, "launcher.py")
        self.port = 0
        self.frontend: Optional[subprocess.Popen] = None
        self.agents: List[subprocess.Popen] = []
        self._logs: List[Any] = []

    def _spawn(self, name: str, args: List[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = os.path.join(self.dir, "traces")
        if self.traced:
            env["PERFBENCH_SPAN_DIR"] = self.span_dir
            command = [sys.executable, self.launcher] + args
        else:
            command = [sys.executable, "-m", "repro.cli"] + args
        log = open(os.path.join(self.dir, f"{name}.log"), "w", encoding="utf-8")
        self._logs.append(log)
        return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)

    def start(self) -> None:
        os.makedirs(self.span_dir, exist_ok=True)
        self.port = _free_port()
        self.frontend = self._spawn("frontend", [
            "serve", "--host", "127.0.0.1", "--port", str(self.port),
            "--workers", "0" if self.cluster else "2",
            "--cache-dir", os.path.join(self.dir, "results"), "--quiet",
        ])
        if self.cluster:
            for i in range(AGENTS):
                self.agents.append(self._spawn(f"agent-{i}", [
                    "worker", "--connect", f"http://127.0.0.1:{self.port}",
                    "--capacity", "1", "--node-id", f"agent-{i}",
                    "--cache-dir", os.path.join(self.dir, f"agent-{i}"), "--quiet",
                ]))
        deadline = time.monotonic() + START_TIMEOUT
        client = Http(self.port)
        while True:
            self._check_alive()
            try:
                status, health, _ = client.call("GET", "/healthz")
            except (OSError, http.client.HTTPException):
                status, health = 0, {}
            if status == 200 and (
                not self.cluster or health.get("cluster_workers", 0) >= AGENTS
            ):
                return
            if time.monotonic() > deadline:
                raise TrafficError(f"daemon not ready after {START_TIMEOUT:g}s")
            time.sleep(0.01)

    def _check_alive(self) -> None:
        for proc in [self.frontend] + self.agents:
            if proc is not None and proc.poll() is not None:
                raise TrafficError(
                    f"process {proc.args[2:4]} exited with {proc.returncode}; "
                    f"see {self.dir}"
                )

    def peak_rss_mb(self) -> float:
        total = 0.0
        for proc in [self.frontend] + self.agents:
            with open(f"/proc/{proc.pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self) -> None:
        """SIGTERM every process at once (the frontend's drain closes its
        queue, which ends the agents' lease long-polls); wait for all."""
        procs = [p for p in [self.frontend] + self.agents if p is not None]
        try:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # also when a signal to this process interrupted the drain
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            for log in self._logs:
                log.close()
            self._logs.clear()


# ---------------------------------------------------------------------------
# the client side
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    kind: str
    ok: bool
    submissions: int
    latency: Optional[float] = None
    submit_s: Optional[float] = None
    status_s: List[float] = field(default_factory=list)
    record: Dict[str, Any] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None


def run_op(http: Http, op: specs.Op, refs: specs.References, ledger: Ledger,
           poll_interval: float = POLL_INTERVALS[0]) -> Outcome:
    """Submit one job (twice in one batch for ``dup``), poll it to a
    terminal state, and check its result against the reference."""
    batch = [op.spec, op.spec] if op.kind == "dup" else [op.spec]
    outcome = Outcome(op.kind, False, len(batch))

    def fail(reason: str) -> Outcome:
        for _ in batch:
            ledger.fail(reason)
        return outcome

    posted = time.time()
    try:
        status, body, outcome.submit_s = http.call("POST", "/jobs", {"jobs": batch})
    except (OSError, http.client.HTTPException) as exc:
        return fail(f"error:{type(exc).__name__}")
    if status != 202:
        return fail(f"refused:{status}")
    entries = body.get("jobs", [])
    if op.kind == "dup" and not (
        len(entries) == 2 and entries[0]["id"] == entries[1]["id"] and entries[1]["deduped"]
    ):
        raise TrafficError(f"duplicate submission was not deduplicated: {entries}")
    job_id = entries[0]["id"]
    deadline = posted + JOB_TIMEOUT
    while True:
        time.sleep(poll_interval)
        try:
            status, record, seconds = http.call("GET", f"/jobs/{job_id}")
        except (OSError, http.client.HTTPException) as exc:
            return fail(f"error:{type(exc).__name__}")
        outcome.status_s.append(seconds)
        if status == 200 and record.get("state") in ("done", "failed"):
            break
        if time.time() > deadline:
            return fail("timeout")
    outcome.record = {k: record.get(k) for k in ("submitted_at", "started_at", "finished_at", "attempts", "digest")}
    if record["state"] != "done":
        return fail("job-failed")
    outcome.latency = record["finished_at"] - posted
    outcome.result = record["result"]
    reference = refs.get(specs.job_for_spec(op.spec))
    digest = result_digest(record["result"])
    outcome.ok = all([ledger.check(digest, reference) for _ in batch])
    return outcome


def closed_loop(port: int, plan: specs.ServePlan, refs, ledger: Ledger) -> List[Outcome]:
    """Every client thread runs its ops back to back; returns all outcomes."""
    outcomes: List[List[Outcome]] = [[] for _ in plan.threads]
    ledgers = [Ledger() for _ in plan.threads]
    errors: List[BaseException] = []

    def client(index: int) -> None:
        http = Http(port)
        try:
            for op in plan.threads[index]:
                outcomes[index].append(
                    run_op(http, op, refs, ledgers[index], POLL_INTERVALS[index])
                )
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plan.threads))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_TIMEOUT * 3)
        if thread.is_alive():
            raise TrafficError("a client thread did not finish")
    for sub in ledgers:
        ledger.merge(sub)
    if errors:
        raise errors[0]
    return [o for per_thread in outcomes for o in per_thread]


def warm_up(port: int, plan: specs.ServePlan, refs, ledger: Ledger) -> None:
    """One job per trace, all at once, so the timed phase loads traces."""
    http = Http(port)
    status, body, _ = http.call("POST", "/jobs", {"jobs": plan.warmups})
    if status != 202:
        raise TrafficError(f"warm-up submission refused with {status}")
    for entry, spec in zip(body["jobs"], plan.warmups):
        deadline = time.time() + JOB_TIMEOUT
        while True:
            _, record, _ = http.call("GET", f"/jobs/{entry['id']}")
            if record.get("state") in ("done", "failed"):
                break
            if time.time() > deadline:
                raise TrafficError("warm-up job timed out")
            time.sleep(POLL_INTERVALS[0])
        if record["state"] != "done":
            raise TrafficError(f"warm-up job failed: {record.get('error')}")
        ledger.check(result_digest(record["result"]),
                     refs.get(specs.job_for_spec(spec)))


def setup(ctx, index: int, plan, refs, traced: bool = False):
    """Start a topology and warm it; returns ``(topology, seconds)``."""
    topology = Topology(ctx, index, traced)
    start = time.perf_counter()
    try:
        topology.start()
        warm_up(topology.port, plan, refs, ctx.ledger)
    except BaseException:
        topology.stop()
        raise
    return topology, time.perf_counter() - start


def get_metrics(port: int) -> Dict[str, Any]:
    status, body, _ = Http(port).call("GET", "/metrics")
    if status != 200:
        raise TrafficError(f"/metrics answered {status}")
    return body


def _path(doc: Dict[str, Any], *keys: str) -> float:
    for key in keys:
        if not isinstance(doc, dict):
            return 0.0
        doc = doc.get(key, 0)
    return float(doc or 0)


def counter_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    def delta(*keys: str) -> float:
        return _path(after, *keys) - _path(before, *keys)

    return {
        "executed": delta("executor_totals", "executed"),
        "cache_hits": delta("executor_totals", "cache_hits"),
        "dedup_hits": delta("counters", "dedup_hits"),
        "rejected": delta("admission", "rejected")
        + delta("counters", "rejected_quarantined"),
        "leases_granted": delta("cluster", "leases_granted"),
        "leases_expired": delta("cluster", "leases_expired"),
        "steals": delta("cluster", "steals"),
        "ring_hits": delta("counters", "cluster", "cache_hits"),
        "ring_misses": delta("counters", "cluster", "cache_misses"),
    }


def verify_traffic(cluster: bool, plan: specs.ServePlan, deltas: Dict[str, float]) -> None:
    """The run did what the workload's name says, or it reports nothing."""
    expect = {
        "dedup_hits": plan.dedup_hits,
        "rejected": 0,
        "leases_expired": 0,
    }
    if cluster:
        # agents answer cold jobs only after a ring miss; the frontend
        # executes nothing itself
        expect.update(executed=0, cache_hits=0, ring_misses=plan.executed,
                      leases_granted=plan.executed + plan.cached)
    else:
        expect.update(executed=plan.executed, cache_hits=plan.cached)
    wrong = [f"{key}={deltas[key]:g} (planned {value})"
             for key, value in expect.items() if deltas[key] != value]
    if wrong:
        raise TrafficError("/metrics disagrees with the plan: " + ", ".join(wrong))


@dataclass
class Phase:
    wall: float
    outcomes: List[Outcome]
    deltas: Dict[str, float]
    reference_seconds: List[float]


class ReferenceSampler:
    """Runs the reference loop every ``REFERENCE_INTERVAL`` seconds in a
    thread of its own while the clients run, timed by that thread's CPU
    time: host load slows it, the daemons' jobs competing for a vCPU do
    not (a runnable thread waiting for a CPU or for the interpreter lock
    accrues no CPU time)."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="reference-loop")

    def _run(self) -> None:
        while True:
            self.seconds.append(reference_loop(time.thread_time))
            if self._stop.wait(REFERENCE_INTERVAL):
                return

    def __enter__(self) -> "ReferenceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def timed_phase(ctx, topology: Topology, plan, refs) -> Phase:
    before = get_metrics(topology.port)
    start = time.perf_counter()
    with ReferenceSampler() as sampler:
        outcomes = closed_loop(topology.port, plan, refs, ctx.ledger)
    wall = time.perf_counter() - start
    deltas = counter_deltas(before, get_metrics(topology.port))
    verify_traffic(topology.cluster, plan, deltas)
    return Phase(wall, outcomes, deltas, sampler.seconds)


def run(ctx) -> Report:
    seed = ctx.seed
    plan = specs.serve_plan(seed, specs.serve_cycles(ctx.workload, ctx.seconds))
    jobs = [specs.job_for_spec(spec) for spec in plan.specs()]
    refs = specs.References(ctx.bench_dir, ctx.shared_dir, ctx.workload, seed)
    ctx.note("references computed", specs.ensure_references(refs, jobs))
    ctx.note("plan", {"executed": plan.executed, "cached": plan.cached,
                      "dedup_hits": plan.dedup_hits, "submissions": plan.submissions})
    report = Report()

    reps = 1 if ctx.trace else SETUP_REPS
    setup_times = []
    topology = None
    for index in range(reps):
        if topology is not None:
            topology.stop()
        topology, seconds = setup(ctx, index, plan, refs)
        setup_times.append(seconds)
    try:
        phase = timed_phase(ctx, topology, plan, refs)
        rss = topology.peak_rss_mb()
    finally:
        topology.stop()

    if not ctx.trace:
        cold = [o.latency for o in phase.outcomes if o.ok and o.kind != "cached"]
        cached = [o.latency for o in phase.outcomes if o.ok and o.kind == "cached"]
        answered = sum(o.submissions for o in phase.outcomes if o.record)
        instructions = sum(sim_counts(o.result["raw_stats"])["instructions"]
                           for o in phase.outcomes if o.ok and o.kind != "cached")
        report.add("setup_s", median(setup_times), "s", len(setup_times))
        ctx.note("reference_loop_s", round(median(phase.reference_seconds), 5))
        # the bounded names carry reference seconds; ``.host`` the same
        # samples in host seconds, printed and recorded only
        def ref(host_seconds: List[float]) -> List[float]:
            return in_reference_seconds(host_seconds, phase.reference_seconds,
                                        REFERENCE_ITERATIONS, REFERENCE_RATE)

        for suffix, wall, cold_s, cached_s, note in (
            ("", ref([phase.wall])[0], ref(cold), ref(cached), "reference seconds"),
            (".host", phase.wall, cold, cached, "host seconds; printed only"),
        ):
            value, pct, count = tail(cold_s)
            report.add("sim_minstr_per_s" + suffix, instructions / wall / 1e6, "Minstr/s",
                       len(cold_s), f"{note}; executed jobs only")
            report.add("jobs_per_s" + suffix, answered / wall, "1/s", answered, note)
            report.add("cold_job_p50_s" + suffix, median(cold_s), "s", len(cold_s), note)
            report.add("cold_job_tail_s" + suffix, value, "s", count, f"{note}; p{pct:.1f}")
            report.add("cached_job_p50_s" + suffix, median(cached_s), "s", len(cached_s),
                       f"{note}; {UNBOUNDED}")
        report.add("peak_rss_mb", rss, "MB", 1 + (AGENTS if topology.cluster else 0),
                   "daemon + agents")
        return report

    # -- traced: a fresh daemon started through the launcher
    traced, _ = setup(ctx, reps, plan, refs, traced=True)
    try:
        timed_from = time.time()
        traced_phase = timed_phase(ctx, traced, plan, refs)
    finally:
        traced.stop()
    spans = tracing.read_spans(traced.span_dir)
    layer_report(report, ctx, plan, traced, spans, timed_from, traced_phase, phase)
    return report


def _per_job_layers(executes: List[Dict[str, Any]], context: str) -> List[Dict[str, float]]:
    out = []
    for span in executes:
        table = {}
        for ctx_name, layer, seconds in span["attrs"].get("samples", []):
            if ctx_name == context:
                table[layer] = table.get(layer, 0.0) + seconds
        out.append(table)
    return out


def _median_or_zero(values: List[float]) -> float:
    return median(values) if values else 0.0


def layer_report(report: Report, ctx, plan, topology: Topology, spans, timed_from: float,
                 traced: Phase, untraced: Phase) -> None:
    setup_spans = [s for s in spans if s["start"] < timed_from]
    timed = [s for s in spans if s["start"] >= timed_from]
    executes = tracing.spans_named(timed, "executor.execute")
    if len(executes) != plan.executed:
        raise TrafficError(
            f"{len(executes)} execute spans from forked job children reached "
            f"the output; {plan.executed} jobs executed"
        )
    n = len(executes)

    # -- engine side, per executed job (sampled inside the forked child)
    cold_compiles = [s for s in tracing.spans_named(setup_spans, "compile.workload")
                     if s["attrs"]["cold"]]
    generate = []
    for span in tracing.spans_named(setup_spans, "executor.execute"):
        table = _per_job_layers([span], "compile.workload")[0]
        share = table.get("workloads", 0.0) / (sum(table.values()) or 1.0)
        compile_s = sum(tracing.duration(c) for c in cold_compiles
                        if c["pid"] == span["pid"])
        generate.append(compile_s * share)
    warm = [tracing.duration(s) for s in tracing.spans_named(timed, "compile.workload")]
    layers = _per_job_layers(executes, "engine.run")
    results = [o.result for o in traced.outcomes if o.ok and o.kind != "cached"]
    sim: Dict[str, float] = {}
    for result in results:
        for key, value in sim_counts(result["raw_stats"]).items():
            sim[key] = sim.get(key, 0) + value
    total = {}
    for table in layers:
        for layer, seconds in table.items():
            total[layer] = total.get(layer, 0.0) + seconds
    train_calls = sum(s["attrs"]["train_calls"] for s in executes)
    tiers: Dict[str, int] = {}
    for span in executes:
        for key, value in span["attrs"]["tiers"].items():
            tiers[key] = tiers.get(key, 0) + value

    def per_job(layer: str) -> float:
        return median([table.get(layer, 0.0) for table in layers])

    report.add("compile.cold_s", _median_or_zero([tracing.duration(s) for s in cold_compiles]),
               "s", len(cold_compiles), "per warm-up job")
    report.add("workloads.generate_s", _median_or_zero(generate), "s", len(generate),
               "per warm-up job")
    report.add("compile.load_s", median(warm), "s", len(warm), "per job")
    report.add("engine.build_s", median([tracing.duration(s) for s in
                                        tracing.spans_named(timed, "engine.build")]),
               "s", n, "per job")
    report.add("engine.run_s", median([tracing.duration(s) for s in
                                      tracing.spans_named(timed, "engine.run")]),
               "s", n, "per job")
    report.add("engine.self_s", per_job("engine"), "s", n, "per job")
    report.add("import.self_s", per_job("import"), "s", n, "per job")
    report.add("vector.replay.self_s", per_job("vector.replay"), "s", n, "per job")
    report.add("vector.classify.self_s", per_job("vector.classify"), "s", n, "per job")
    report.add("vector.replay.ns_per_instr",
               total.get("vector.replay", 0.0) / sim["instructions"] * 1e9, "ns", n)
    report.add("vector.misspath.self_s", per_job("vector.misspath"), "s", n, "per job")
    report.add("vector.misspath.us_per_l1d_miss",
               total.get("vector.misspath", 0.0) / max(1, sim["l1d_misses"]) * 1e6, "us", n)
    report.add("memsys.self_s", per_job("memsys"), "s", n, "per job")
    report.add("prefetchers.self_s", per_job("prefetchers"), "s", n, "per job")
    report.add("prefetchers.train_calls", train_calls, "count", n)
    report.add("prefetchers.us_per_train",
               total.get("prefetchers", 0.0) / max(1, train_calls) * 1e6, "us", n)
    report.add("engine.tier.vectorized", tiers.get("vectorized", 0), "count", n)
    report.add("engine.tier.demoted", tiers.get("demoted", 0), "count", n)
    add_sim_metrics(report, sim, n)

    # -- service side
    outcomes = traced.outcomes
    records = [o for o in outcomes if o.record.get("started_at")]
    waits = [o.record["started_at"] - o.record["submitted_at"] for o in records]
    wait_tail, wait_pct, wait_n = tail(waits)
    runs_cold = [o.record["finished_at"] - o.record["started_at"]
                 for o in records if o.kind != "cached"]
    runs_cached = [o.record["finished_at"] - o.record["started_at"]
                   for o in records if o.kind == "cached"]
    statuses = [s for o in outcomes for s in o.status_s]
    report.add("serve.api.submit_s", median([o.submit_s for o in outcomes if o.submit_s]),
               "s", len(outcomes))
    report.add("serve.api.status_s", median(statuses), "s", len(statuses))
    report.add("serve.api.polls_per_job", len(statuses) / len(outcomes), "count", len(outcomes))
    report.add("serve.queue.wait_p50_s", median(waits), "s", len(waits))
    report.add("serve.queue.wait_tail_s", wait_tail, "s", wait_n, f"p{wait_pct:.1f}")
    report.add("serve.run_cold_s", median(runs_cold), "s", len(runs_cold))
    report.add("serve.run_cached_s", median(runs_cached), "s", len(runs_cached))

    guarded = tracing.spans_named(timed, "executor.guarded")
    executed_guarded = [s for s in guarded if s["attrs"]["executed"]]
    by_digest = {s["attrs"]["digest"]: s for s in executes}
    cache_names = ("executor.cache_load", "executor.cache_store",
                   "cluster.shard_load", "cluster.shard_store")
    spawn = []
    for span in executed_guarded:
        child = by_digest.get(span["attrs"]["digest"])
        if child is None:
            continue
        nested = [dict(s, parent=span["id"]) for s in timed
                  if s["parent"] == span["id"] and s["name"] in cache_names]
        nested.append(dict(child, parent=span["id"]))
        own = dict(span, parent=None)
        spawn.append(tracing.self_times([own] + nested)[span["id"]])
    loads = tracing.spans_named(timed, "executor.cache_load")
    stores = tracing.spans_named(timed, "executor.cache_store")
    report.add("executor.guarded_s", median([tracing.duration(s) for s in executed_guarded]),
               "s", len(executed_guarded), "executed jobs")
    report.add("executor.execute_s", median([tracing.duration(s) for s in executes]), "s", n)
    report.add("executor.spawn_s", median(spawn), "s", len(spawn),
               "guarded - execute - cache IO")
    report.add("executor.cache_load_s", median([tracing.duration(s) for s in loads]),
               "s", len(loads))
    report.add("executor.cache_store_s", median([tracing.duration(s) for s in stores]),
               "s", len(stores))
    deltas = traced.deltas
    if topology.cluster:
        executed = n
        hits = sum(1 for s in guarded if s["attrs"]["cached"])
    else:
        executed, hits = deltas["executed"], deltas["cache_hits"]
    report.add("executor.executed", executed, "count", n)
    report.add("executor.cache_hits", hits, "count", len(guarded))
    report.add("serve.queue.dedup_hits", deltas["dedup_hits"], "count", 1, "/metrics")
    report.add("serve.rejected", deltas["rejected"], "count", 1, "/metrics")

    reports = tracing.spans_named(timed, "cluster.report")
    shard_loads = tracing.spans_named(timed, "cluster.shard_load")
    shard_stores = tracing.spans_named(timed, "cluster.shard_store")
    report.add("serve.cluster.report_s",
               _median_or_zero([tracing.duration(s) for s in reports]), "s", len(reports))
    report.add("serve.cluster.shard_load_s",
               _median_or_zero([tracing.duration(s) for s in shard_loads]), "s",
               len(shard_loads))
    report.add("serve.cluster.shard_store_s",
               _median_or_zero([tracing.duration(s) for s in shard_stores]), "s",
               len(shard_stores))
    report.add("serve.cluster.shard_hits", deltas["ring_hits"], "count", 1, "/metrics")
    report.add("serve.cluster.leases_granted", deltas["leases_granted"], "count", 1, "/metrics")
    report.add("serve.cluster.leases_expired", deltas["leases_expired"], "count", 1, "/metrics")
    report.add("serve.cluster.steals", deltas["steals"], "count", 1, "/metrics")
    report.add("trace.overhead_share", traced.wall / untraced.wall - 1.0, "ratio", 2)
