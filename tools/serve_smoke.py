#!/usr/bin/env python
"""Black-box smoke test of the ``bingo-sim serve`` daemon.

Drives the service the way an operator would — as a separate process,
over real HTTP, shut down with a real SIGTERM:

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
6. SIGTERM the daemon and assert it drains cleanly (exit code 0), and
   that its child processes (the slot's warm worker) exit with it.

Exit code 0 means the whole sequence held.  Run via ``make serve-smoke``
or directly: ``PYTHONPATH=src python tools/serve_smoke.py``.
"""

import dataclasses
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
from repro.serve.client import ServiceClient  # noqa: E402
from repro.serve.jobs import job_from_wire  # noqa: E402
from repro.sim.executor import execute_job  # noqa: E402

HEALTH_DEADLINE = 60.0
JOB_DEADLINE = 120.0
EXPERIMENT_DEADLINE = 300.0
DRAIN_DEADLINE = 30.0
#: how long a dead daemon's or agent's children may take to exit
ORPHAN_DEADLINE = 5.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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


#: the adaptive-search scenario: 12 points, rungs 750 -> 1500 -> 3000
SPACE = {
    "workloads": ["streaming", "em3d"],
    "prefetchers": ["nextline"],
    "knobs": {"degree": [1, 2, 3, 4, 5, 6]},
    "base": {
        "seed": 7,
        "scale": 0.02,
        "compile": False,
        "warmup": 500,
        "system": "experiment",
    },
}
ROUND_LINE = re.compile(
    r"^round \d+: (\d+) instructions, (\d+) candidates -> (\d+) promoted$"
)
WINNER_JOB_LINE = re.compile(r"^\s*job\s+([0-9a-f]+)\s*$")


def check_experiment(client, url: str, env: dict, tmp: str) -> bool:
    """Scenario 5: the operator's ``bingo-sim experiment --space`` path."""
    space_path = os.path.join(tmp, "space.json")
    with open(space_path, "w", encoding="utf-8") as handle:
        json.dump(SPACE, handle)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "experiment",
                "--space", f"@{space_path}", "--url", url,
                "--objective", "throughput",
                "--screen", "750", "--full", "3000", "--eta", "2",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=EXPERIMENT_DEADLINE,
        )
    except subprocess.TimeoutExpired:
        print(f"FAIL: experiment ran past {EXPERIMENT_DEADLINE:g}s",
              file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(f"FAIL: experiment exited {proc.returncode}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return False
    lines = proc.stdout.splitlines()
    rounds = [m.groups() for m in map(ROUND_LINE.match, lines) if m]
    budgets = [int(budget) for budget, _, _ in rounds]
    chain = [int(candidates) for _, candidates, _ in rounds]
    chain += [int(promoted) for _, _, promoted in rounds[-1:]]
    if budgets != [750, 1500, 3000] or chain != [12, 6, 3, 1]:
        print(f"FAIL: halving did not screen: rungs {budgets}, "
              f"candidates {chain}\n{proc.stdout}", file=sys.stderr)
        return False
    print("ok: experiment screened 12 -> 6 -> 3 -> 1 over rungs "
          f"{budgets}")

    job_ids = [m.group(1) for m in map(WINNER_JOB_LINE.match, lines) if m]
    if len(job_ids) != 1:
        print(f"FAIL: no winner job id printed\n{proc.stdout}",
              file=sys.stderr)
        return False
    spec = client.status(job_ids[0])["job"]
    if spec["instructions"] != 3000:
        print(f"FAIL: winner not from the full-length rung: {spec}",
              file=sys.stderr)
        return False
    hits_before = client.metrics()["executor_totals"].get("cache_hits", 0)
    rerun = client.wait(client.submit(spec)["id"], timeout=JOB_DEADLINE)
    hits = client.metrics()["executor_totals"].get("cache_hits", 0)
    if rerun["state"] != "done" or hits - hits_before < 1:
        print(f"FAIL: winner re-submission missed the result cache "
              f"(state {rerun['state']}, new hits {hits - hits_before})",
              file=sys.stderr)
        return False
    print("ok: winner re-submission answered from the result cache")
    return True


def main() -> int:
    port = free_port()
    spec = {
        "workload": "streaming",
        "prefetcher": "bingo",
        "instructions": 3000,
        "warmup": 500,
        "seed": 42,
        "scale": 0.02,
        "compile": False,
        "system": dataclasses.asdict(small_system(num_cores=4)),
    }

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(REPO_ROOT, "src"),
                          env.get("PYTHONPATH")])
        )
        env.setdefault(
            "REPRO_CACHE_DIR", os.path.join(tmp, "cache")
        )
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(port),
                "--workers", "1",
                "--state-dir", os.path.join(tmp, "state"),
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            # connect() proves liveness: it retries the startup race with
            # bounded backoff and raises typed ServiceUnavailable if the
            # daemon never binds — no hand-rolled polling loop needed
            client = ServiceClient.connect(
                f"http://127.0.0.1:{port}", timeout=10.0,
                wait=HEALTH_DEADLINE,
            )
            print(f"ok: daemon healthy on port {port}")

            accepted = client.submit(spec)
            record = client.wait(accepted["id"], timeout=JOB_DEADLINE)
            if record["state"] != "done":
                print(f"FAIL: job ended {record['state']}: "
                      f"{record.get('error')}", file=sys.stderr)
                return 1
            print(f"ok: job {accepted['id']} done over HTTP")

            direct = execute_job(job_from_wire(spec)).to_dict()
            if record["result"] != direct:
                print("FAIL: HTTP result diverges from direct execution",
                      file=sys.stderr)
                return 1
            print("ok: HTTP result matches direct run")

            again = client.submit(spec)
            rerun = client.wait(again["id"], timeout=30.0)
            totals = client.metrics()["executor_totals"]
            if rerun["result"] != direct:
                print("FAIL: cached re-run diverges", file=sys.stderr)
                return 1
            if totals.get("cache_hits", 0) < 1:
                print(f"FAIL: expected a cache hit, totals={totals}",
                      file=sys.stderr)
                return 1
            if totals.get("executed", 0) != 1:
                print(f"FAIL: expected exactly one execution, "
                      f"totals={totals}", file=sys.stderr)
                return 1
            print("ok: identical re-submission answered from the cache")

            if not check_experiment(client, client.base_url, env, tmp):
                return 1

            children = child_pids(daemon.pid)
            daemon.send_signal(signal.SIGTERM)
            try:
                code = daemon.wait(timeout=DRAIN_DEADLINE)
            except subprocess.TimeoutExpired:
                print("FAIL: daemon did not drain within "
                      f"{DRAIN_DEADLINE:g}s of SIGTERM", file=sys.stderr)
                return 1
            if code != 0:
                print(f"FAIL: daemon exited {code} after SIGTERM",
                      file=sys.stderr)
                return 1
            print("ok: SIGTERM drained cleanly (exit 0)")
            left = lingering(children)
            if left:
                print(f"FAIL: daemon children {left} outlived its drain",
                      file=sys.stderr)
                return 1
            print(f"ok: all {len(children)} daemon child process(es) "
                  "exited with the drain")
            print("PASS: service smoke")
            return 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
