#!/usr/bin/env python
"""Black-box smoke test of the multi-node simulation service.

Drives the cluster the way an operator would — three separate
processes, real HTTP, a real SIGKILL:

1. start a **frontend-only** daemon (``bingo-sim serve --workers 0``)
   with a tight admission bound and a short lease TTL;
2. saturate the queue and assert the daemon answers 429
   (``code: "backpressure"``) with a ``Retry-After`` header;
3. start two ``bingo-sim worker`` agents with *separate* cache dirs
   and wait until both register;
4. SIGKILL one worker mid-run — its leases must expire and the jobs
   must be reclaimed and finished by the survivor;
5. assert every job completes with results **bit-identical** to
   running the same specs in-process, and that the frontend itself
   executed nothing (``workers=0``);
6. assert the frontend kept one result store: every job's result reads
   back by digest from ``ResultCache(<frontend --cache-dir>)``, the
   store its local slots would use, and no per-node ``cluster/`` store
   exists under that directory;
7. SIGTERM the survivor and the frontend and require clean exits.

Exit code 0 means the whole sequence held.  Run via
``make cluster-smoke`` or directly:
``PYTHONPATH=src python tools/cluster_smoke.py``.
"""

import dataclasses
import http.client
import json
import os
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
SWEEP_DEADLINE = 180.0
DRAIN_DEADLINE = 30.0
MAX_QUEUE_DEPTH = 8
LEASE_TTL = 4.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spec_for(seed: int) -> dict:
    return {
        "workload": "streaming",
        "prefetcher": "none",
        "instructions": 20000,
        "warmup": 0,
        "seed": seed,
        "scale": 0.02,
        "compile": False,
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


def wait_for(predicate, deadline: float, what: str):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            if predicate():
                return
        except (ServiceError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit(f"FAIL: timed out waiting for {what}")


def spawn(argv, env):
    return subprocess.Popen(argv, env=env, cwd=REPO_ROOT)


def main() -> int:
    port = free_port()
    url = f"http://127.0.0.1:{port}"

    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp:
        frontend_cache = os.path.join(tmp, "frontend-cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(REPO_ROOT, "src"),
                          env.get("PYTHONPATH")])
        )
        cli = [sys.executable, "-m", "repro.cli"]
        frontend = spawn(
            cli + [
                "serve",
                "--host", "127.0.0.1", "--port", str(port),
                "--workers", "0",
                "--max-queue-depth", str(MAX_QUEUE_DEPTH),
                "--lease-ttl", str(LEASE_TTL),
                "--cache-dir", frontend_cache,
                "--state-dir", os.path.join(tmp, "state"),
            ],
            env,
        )
        workers = {}
        try:
            # satellite (b): construction-time connect retry, typed error
            client = ServiceClient.connect(
                url, timeout=10.0, wait=HEALTH_DEADLINE,
                backpressure_retries=0,
            )
            print(f"ok: frontend healthy on port {port} (workers=0)")

            # -- admission control, before any worker can drain ---------
            specs = [spec_for(seed) for seed in range(1, MAX_QUEUE_DEPTH + 1)]
            accepted = [client.submit(spec) for spec in specs]
            status, headers, body = raw_post(
                "127.0.0.1", port, "/jobs",
                {"job": spec_for(MAX_QUEUE_DEPTH + 1)},
            )
            if status != 429 or body.get("code") != "backpressure":
                print(f"FAIL: expected 429 backpressure, got {status} "
                      f"{body}", file=sys.stderr)
                return 1
            retry_after = headers.get("Retry-After")
            if not retry_after or int(retry_after) < 1:
                print(f"FAIL: missing Retry-After header: {headers}",
                      file=sys.stderr)
                return 1
            print(f"ok: saturated queue answers 429 "
                  f"(Retry-After: {retry_after}s)")

            # -- two workers, separate caches ---------------------------
            for name in ("smoke-w1", "smoke-w2"):
                workers[name] = spawn(
                    cli + [
                        "worker",
                        "--connect", url,
                        "--node-id", name,
                        "--capacity", "1",
                        "--timeout", "60",
                        "--cache-dir", os.path.join(tmp, f"{name}-cache"),
                    ],
                    env,
                )
            wait_for(
                lambda: len(client.metrics()["cluster"]["workers"]) == 2,
                REGISTER_DEADLINE,
                "both workers to register",
            )
            print("ok: both workers registered")

            # -- SIGKILL one mid-run ------------------------------------
            # wait until the victim provably holds a lease, then kill it
            wait_for(
                lambda: client.metrics()["cluster"]["workers"]
                ["smoke-w1"]["inflight"] >= 1,
                REGISTER_DEADLINE,
                "smoke-w1 to hold a lease",
            )
            workers["smoke-w1"].kill()
            workers["smoke-w1"].wait(timeout=10)
            # let any report that was already on the wire land, then count
            # the leases that died with the process — each MUST reclaim
            time.sleep(0.5)
            orphaned = (
                client.metrics()["cluster"]["workers"]
                ["smoke-w1"]["inflight"]
            )
            print(f"ok: SIGKILLed smoke-w1 mid-run "
                  f"({orphaned} lease(s) orphaned)")

            sweep_end = time.monotonic() + SWEEP_DEADLINE
            finals = [
                client.wait(
                    entry["id"],
                    timeout=max(1.0, sweep_end - time.monotonic()),
                )
                for entry in accepted
            ]
            bad = [f for f in finals if f["state"] != "done"]
            if bad:
                print(f"FAIL: {len(bad)} job(s) not done: "
                      f"{[f.get('error') for f in bad]}", file=sys.stderr)
                return 1
            print(f"ok: all {len(finals)} jobs completed despite the kill")

            # -- bit-identical to single-node ---------------------------
            for spec, final in zip(specs, finals):
                direct = execute_job(job_from_wire(spec)).to_dict()
                if final["result"] != direct:
                    print(f"FAIL: seed {spec['seed']} diverges from "
                          f"direct execution", file=sys.stderr)
                    return 1
            print("ok: every result bit-identical to in-process runs")

            metrics = client.metrics()
            totals = metrics["executor_totals"]
            if totals.get("executed", 0) != 0:
                print(f"FAIL: frontend executed jobs itself: {totals}",
                      file=sys.stderr)
                return 1
            cluster = metrics["cluster"]
            granted = cluster["leases_granted"]
            reclaimed = cluster["leases_reclaimed"]
            if granted < len(specs):
                print(f"FAIL: only {granted} leases granted for "
                      f"{len(specs)} jobs", file=sys.stderr)
                return 1
            if reclaimed < orphaned:
                print(f"FAIL: {orphaned} lease(s) died with smoke-w1 "
                      f"but only {reclaimed} reclaimed", file=sys.stderr)
                return 1
            print(f"ok: work ran on the agents "
                  f"({granted} leases, {reclaimed} reclaimed after the "
                  f"kill, {cluster['steals']} stolen)")

            # -- one result store ---------------------------------------
            store = ResultCache(frontend_cache)
            for final in finals:
                if store.get(final["digest"]) != final["result"]:
                    print(f"FAIL: job {final['id']} (digest "
                          f"{final['digest'][:12]}) does not read back "
                          f"from the frontend's result cache",
                          file=sys.stderr)
                    return 1
            if os.path.exists(os.path.join(frontend_cache, "cluster")):
                print("FAIL: the frontend keeps a second store under "
                      "cluster/", file=sys.stderr)
                return 1
            print(f"ok: all {len(finals)} results read back from the "
                  f"frontend's one result cache")

            # -- clean shutdowns ----------------------------------------
            workers["smoke-w2"].send_signal(signal.SIGTERM)
            code = workers["smoke-w2"].wait(timeout=DRAIN_DEADLINE)
            if code != 0:
                print(f"FAIL: surviving worker exited {code}",
                      file=sys.stderr)
                return 1
            frontend.send_signal(signal.SIGTERM)
            code = frontend.wait(timeout=DRAIN_DEADLINE)
            if code != 0:
                print(f"FAIL: frontend exited {code} after SIGTERM",
                      file=sys.stderr)
                return 1
            print("ok: worker and frontend drained cleanly (exit 0)")
            print("PASS: cluster smoke")
            return 0
        finally:
            for proc in list(workers.values()) + [frontend]:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
