#!/usr/bin/env python
"""Black-box smoke tests of the simulation service.

Drives the service the way an operator would — separate processes,
real HTTP, real signals.  Two scenarios, chosen by argument:

``node`` (the default; ``make serve-smoke``) drives one daemon:

1. start ``bingo-sim serve`` on an ephemeral port with a state dir;
2. wait for ``GET /healthz``;
3. submit a job over HTTP, poll it to completion, and assert the
   result is bit-identical to running the same spec in-process;
4. submit the identical spec again and assert the daemon answers it
   from the shared result cache (no second simulation);
5. run ``bingo-sim experiment --space @file`` against the daemon as a
   subprocess: a 12-point space (2 workloads x 6 next-line degrees)
   over a two-round successive-halving schedule (750 -> 1500 -> 3000
   instructions).  Assert exit 0, printed rounds 12 -> 6 -> 3 -> 1, and
   that the winning job's spec (``GET /jobs/<printed job id>``)
   re-submits as a result-cache hit;
6. SIGTERM the daemon.

``cluster`` (``make cluster-smoke``) drives a frontend and two agents:

1. start a **frontend-only** daemon (``bingo-sim serve --workers 0``)
   with a tight admission bound and a short lease TTL;
2. saturate the queue and assert the daemon answers 429
   (``code: "backpressure"``) with a ``Retry-After`` header;
3. start two ``bingo-sim worker`` agents with *separate* cache dirs
   and wait until both register;
4. SIGKILL one worker mid-run — its leases must expire and the jobs
   must be reclaimed and finished by the survivor, and the killed
   agent's child processes (its slot's warm worker) must exit within
   5 s instead of lingering as orphans;
5. assert every job completes with results **bit-identical** to
   running the same specs in-process, and that the frontend itself
   executed nothing (``workers=0``);
6. assert the frontend kept one result store: every job's result reads
   back by digest from ``ResultCache(<frontend --cache-dir>)``, the
   store its local slots would use, and no per-node ``cluster/`` store
   exists under that directory;
7. SIGTERM the survivor and the frontend.

Both share one envelope: the children import the package from
``src/``, and compiled traces land in the run's temp dir unless
``REPRO_CACHE_DIR`` is set (the in-process reference runs compile into
the same place).  Every SIGTERM must end in a clean drain: exit code 0
within 30 s, and every child process (a slot's warm worker) gone within
5 s of it.

Exit code 0 means the whole sequence held.  Run via ``make`` or
directly: ``PYTHONPATH=src python tools/serve_smoke.py [node|cluster]``.
"""

import argparse
import dataclasses
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.common.config import small_system  # noqa: E402
from repro.serve.client import ServiceClient, ServiceError  # noqa: E402
from repro.serve.jobs import job_from_wire  # noqa: E402
from repro.sim.executor import ResultCache, execute_job  # noqa: E402

HEALTH_DEADLINE = 60.0
REGISTER_DEADLINE = 30.0
JOB_DEADLINE = 120.0
SWEEP_DEADLINE = 180.0
EXPERIMENT_DEADLINE = 300.0
DRAIN_DEADLINE = 30.0
#: how long a dead daemon's or agent's children may take to exit
ORPHAN_DEADLINE = 5.0
MAX_QUEUE_DEPTH = 8
LEASE_TTL = 4.0


class SmokeFailure(Exception):
    """A step of the scenario did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


# ---------------------------------------------------------------------------
# the envelope: ports, environment, processes, drains
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def smoke_env(tmp: str) -> dict:
    """The children's environment, with caches under ``tmp`` unless
    ``REPRO_CACHE_DIR`` is set; this process compiles there too."""
    os.environ.setdefault("REPRO_CACHE_DIR", os.path.join(tmp, "cache"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    return env


def spawn(procs: list, env: dict, *argv: str) -> subprocess.Popen:
    """Start ``bingo-sim <argv>``; ``procs`` keeps it for the final kill."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env, cwd=REPO_ROOT
    )
    procs.append(proc)
    return proc


def _proc_stat(pid: int):
    """``(state, ppid)`` from ``/proc/<pid>/stat``, or ``None`` once the
    process is gone (or on a platform without ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


#: process states of a process that has exited (a zombie has, too)
EXITED = ("Z", "X")


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in EXITED


def child_pids(pid: int) -> list:
    """The running children of ``pid``, read from ``/proc`` (empty on a
    platform without it)."""
    if not os.path.isdir("/proc"):
        return []
    children = []
    for entry in os.listdir("/proc"):
        stat = _proc_stat(int(entry)) if entry.isdigit() else None
        if stat is not None and stat[1] == pid and stat[0] not in EXITED:
            children.append(int(entry))
    return children


def lingering(pids, deadline: float = ORPHAN_DEADLINE) -> list:
    """Those of ``pids`` still running after up to ``deadline`` seconds."""
    end = time.monotonic() + deadline
    while True:
        alive = [pid for pid in pids if _running(pid)]
        if not alive or time.monotonic() >= end:
            return alive
        time.sleep(0.05)


def drain(proc: subprocess.Popen, name: str) -> None:
    """SIGTERM ``proc``: it must exit 0, and its children with it."""
    children = child_pids(proc.pid)
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=DRAIN_DEADLINE)
    except subprocess.TimeoutExpired:
        raise SmokeFailure(
            f"{name} did not drain within {DRAIN_DEADLINE:g}s of SIGTERM"
        ) from None
    check(code == 0, f"{name} exited {code} after SIGTERM")
    left = lingering(children)
    check(not left, f"{name}'s children {left} outlived its drain")
    print(f"ok: {name} drained cleanly (exit 0; all {len(children)} "
          "child process(es) exited with it)")


def wait_for(predicate, deadline: float, what: str) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            if predicate():
                return
        except (ServiceError, OSError):
            pass
        time.sleep(0.2)
    raise SmokeFailure(f"timed out waiting for {what}")


# ---------------------------------------------------------------------------
# node: one daemon, adaptive search against it
# ---------------------------------------------------------------------------

NODE_SPEC = {
    "workload": "streaming",
    "prefetcher": "bingo",
    "instructions": 3000,
    "warmup": 500,
    "seed": 42,
    "scale": 0.02,
    "system": dataclasses.asdict(small_system(num_cores=4)),
}

#: the adaptive-search step: 12 points, rungs 750 -> 1500 -> 3000
SPACE = {
    "workloads": ["streaming", "em3d"],
    "prefetchers": ["nextline"],
    "knobs": {"degree": [1, 2, 3, 4, 5, 6]},
    "base": {
        "seed": 7,
        "scale": 0.02,
        "warmup": 500,
        "system": "experiment",
    },
}
ROUND_LINE = re.compile(
    r"^round \d+: (\d+) instructions, (\d+) candidates -> (\d+) promoted$"
)
WINNER_JOB_LINE = re.compile(r"^\s*job\s+([0-9a-f]+)\s*$")


def check_experiment(client, env: dict, tmp: str) -> None:
    """Step 5: the operator's ``bingo-sim experiment --space`` path."""
    space_path = os.path.join(tmp, "space.json")
    with open(space_path, "w", encoding="utf-8") as handle:
        json.dump(SPACE, handle)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "experiment",
                "--space", f"@{space_path}", "--url", client.base_url,
                "--objective", "throughput",
                "--screen", "750", "--full", "3000", "--eta", "2",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=EXPERIMENT_DEADLINE,
        )
    except subprocess.TimeoutExpired:
        raise SmokeFailure(
            f"experiment ran past {EXPERIMENT_DEADLINE:g}s"
        ) from None
    check(proc.returncode == 0,
          f"experiment exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    rounds = [m.groups() for m in map(ROUND_LINE.match, lines) if m]
    budgets = [int(budget) for budget, _, _ in rounds]
    chain = [int(candidates) for _, candidates, _ in rounds]
    chain += [int(promoted) for _, _, promoted in rounds[-1:]]
    check(budgets == [750, 1500, 3000] and chain == [12, 6, 3, 1],
          f"halving did not screen: rungs {budgets}, candidates {chain}\n"
          f"{proc.stdout}")
    print(f"ok: experiment screened 12 -> 6 -> 3 -> 1 over rungs {budgets}")

    job_ids = [m.group(1) for m in map(WINNER_JOB_LINE.match, lines) if m]
    check(len(job_ids) == 1, f"no winner job id printed\n{proc.stdout}")
    spec = client.status(job_ids[0])["job"]
    check(spec["instructions"] == 3000,
          f"winner not from the full-length rung: {spec}")
    hits_before = client.metrics()["executor_totals"].get("cache_hits", 0)
    rerun = client.wait(client.submit(spec)["id"], timeout=JOB_DEADLINE)
    hits = client.metrics()["executor_totals"].get("cache_hits", 0)
    check(rerun["state"] == "done" and hits - hits_before >= 1,
          f"winner re-submission missed the result cache "
          f"(state {rerun['state']}, new hits {hits - hits_before})")
    print("ok: winner re-submission answered from the result cache")


def node(tmp: str, env: dict, procs: list) -> None:
    port = free_port()
    daemon = spawn(
        procs, env, "serve", "--host", "127.0.0.1", "--port", str(port),
        "--workers", "1", "--state-dir", os.path.join(tmp, "state"),
    )
    # connect() proves liveness: it retries the startup race with
    # bounded backoff and raises typed ServiceUnavailable if the daemon
    # never binds — no hand-rolled polling loop needed
    client = ServiceClient.connect(
        f"http://127.0.0.1:{port}", timeout=10.0, wait=HEALTH_DEADLINE
    )
    print(f"ok: daemon healthy on port {port}")

    accepted = client.submit(NODE_SPEC)
    record = client.wait(accepted["id"], timeout=JOB_DEADLINE)
    check(record["state"] == "done",
          f"job ended {record['state']}: {record.get('error')}")
    print(f"ok: job {accepted['id']} done over HTTP")

    direct = execute_job(job_from_wire(NODE_SPEC)).to_dict()
    check(record["result"] == direct,
          "HTTP result diverges from direct execution")
    print("ok: HTTP result matches direct run")

    again = client.submit(NODE_SPEC)
    rerun = client.wait(again["id"], timeout=30.0)
    totals = client.metrics()["executor_totals"]
    check(rerun["result"] == direct, "cached re-run diverges")
    check(totals.get("cache_hits", 0) >= 1,
          f"expected a cache hit, totals={totals}")
    check(totals.get("executed", 0) == 1,
          f"expected exactly one execution, totals={totals}")
    print("ok: identical re-submission answered from the cache")

    check_experiment(client, env, tmp)
    drain(daemon, "daemon")


# ---------------------------------------------------------------------------
# cluster: a frontend-only daemon and two agents, one of them SIGKILLed
# ---------------------------------------------------------------------------


def cluster_spec(seed: int) -> dict:
    # about 0.3 s a job, its trace compile included: the queue outlasts
    # an agent's start-up, so both agents lease and the victim holds one
    return {
        "workload": "streaming",
        "prefetcher": "none",
        "instructions": 100000,
        "warmup": 0,
        "seed": seed,
        "scale": 0.02,
        "system": dataclasses.asdict(small_system(num_cores=4)),
    }


def raw_post(host: str, port: int, path: str, payload: dict):
    """(status, headers, body) — ServiceClient hides response headers."""
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        body = json.dumps(payload).encode("utf-8")
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read().decode("utf-8")),
        )
    finally:
        conn.close()


def cluster(tmp: str, env: dict, procs: list) -> None:
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    frontend_cache = os.path.join(tmp, "frontend-cache")
    frontend = spawn(
        procs, env, "serve", "--host", "127.0.0.1", "--port", str(port),
        "--workers", "0",
        "--max-queue-depth", str(MAX_QUEUE_DEPTH),
        "--lease-ttl", str(LEASE_TTL),
        "--cache-dir", frontend_cache,
        "--state-dir", os.path.join(tmp, "state"),
    )
    client = ServiceClient.connect(
        url, timeout=10.0, wait=HEALTH_DEADLINE, backpressure_retries=0
    )
    print(f"ok: frontend healthy on port {port} (workers=0)")

    # -- admission control, before any worker can drain -------------------
    specs = [cluster_spec(seed) for seed in range(1, MAX_QUEUE_DEPTH + 1)]
    accepted = [client.submit(spec) for spec in specs]
    status, headers, body = raw_post(
        "127.0.0.1", port, "/jobs", {"job": cluster_spec(MAX_QUEUE_DEPTH + 1)}
    )
    check(status == 429 and body.get("code") == "backpressure",
          f"expected 429 backpressure, got {status} {body}")
    retry_after = headers.get("Retry-After")
    check(bool(retry_after) and int(retry_after) >= 1,
          f"missing Retry-After header: {headers}")
    print(f"ok: saturated queue answers 429 (Retry-After: {retry_after}s)")

    # -- two workers, separate caches -------------------------------------
    workers = {
        name: spawn(
            procs, env, "worker", "--connect", url, "--node-id", name,
            "--capacity", "1", "--timeout", "60",
            "--cache-dir", os.path.join(tmp, f"{name}-cache"),
        )
        for name in ("smoke-w1", "smoke-w2")
    }
    wait_for(
        lambda: len(client.metrics()["cluster"]["workers"]) == 2,
        REGISTER_DEADLINE,
        "both workers to register",
    )
    print("ok: both workers registered")

    # -- SIGKILL one mid-run ----------------------------------------------
    # wait until the victim provably holds a lease, then kill it
    wait_for(
        lambda: client.metrics()["cluster"]["workers"]["smoke-w1"]
        ["inflight"] >= 1,
        REGISTER_DEADLINE,
        "smoke-w1 to hold a lease",
    )
    children = child_pids(workers["smoke-w1"].pid)
    workers["smoke-w1"].kill()
    workers["smoke-w1"].wait(timeout=10)
    # let any report that was already on the wire land, then count the
    # leases that died with the process — each MUST reclaim
    time.sleep(0.5)
    orphaned = client.metrics()["cluster"]["workers"]["smoke-w1"]["inflight"]
    print(f"ok: SIGKILLed smoke-w1 mid-run ({orphaned} lease(s) orphaned)")
    left = lingering(children)
    check(not left, f"smoke-w1's children {left} outlived it")
    print(f"ok: all {len(children)} child process(es) of smoke-w1 "
          "exited after the kill")

    sweep_end = time.monotonic() + SWEEP_DEADLINE
    finals = [
        client.wait(
            entry["id"], timeout=max(1.0, sweep_end - time.monotonic())
        )
        for entry in accepted
    ]
    bad = [f.get("error") for f in finals if f["state"] != "done"]
    check(not bad, f"{len(bad)} job(s) not done: {bad}")
    print(f"ok: all {len(finals)} jobs completed despite the kill")

    # -- bit-identical to single-node -------------------------------------
    for spec, final in zip(specs, finals):
        direct = execute_job(job_from_wire(spec)).to_dict()
        check(final["result"] == direct,
              f"seed {spec['seed']} diverges from direct execution")
    print("ok: every result bit-identical to in-process runs")

    metrics = client.metrics()
    totals = metrics["executor_totals"]
    check(totals.get("executed", 0) == 0,
          f"frontend executed jobs itself: {totals}")
    granted = metrics["cluster"]["leases_granted"]
    reclaimed = metrics["cluster"]["leases_reclaimed"]
    check(granted >= len(specs),
          f"only {granted} leases granted for {len(specs)} jobs")
    check(reclaimed >= orphaned,
          f"{orphaned} lease(s) died with smoke-w1 but only {reclaimed} "
          "reclaimed")
    print(f"ok: work ran on the agents ({granted} leases, {reclaimed} "
          f"reclaimed after the kill, {metrics['cluster']['steals']} stolen)")

    # -- one result store -------------------------------------------------
    store = ResultCache(frontend_cache)
    for final in finals:
        check(store.get(final["digest"]) == final["result"],
              f"job {final['id']} (digest {final['digest'][:12]}) does not "
              "read back from the frontend's result cache")
    check(not os.path.exists(os.path.join(frontend_cache, "cluster")),
          "the frontend keeps a second store under cluster/")
    print(f"ok: all {len(finals)} results read back from the frontend's "
          "one result cache")

    drain(workers["smoke-w2"], "surviving worker")
    drain(frontend, "frontend")


SCENARIOS = {"node": node, "cluster": cluster}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Black-box smoke test of the simulation service."
    )
    parser.add_argument("scenario", nargs="?", default="node",
                        choices=sorted(SCENARIOS))
    args = parser.parse_args(argv)
    procs: list = []
    with tempfile.TemporaryDirectory(prefix=f"{args.scenario}-smoke-") as tmp:
        try:
            SCENARIOS[args.scenario](tmp, smoke_env(tmp), procs)
        except SmokeFailure as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
    print(f"PASS: {args.scenario} smoke")
    return 0


if __name__ == "__main__":
    sys.exit(main())
