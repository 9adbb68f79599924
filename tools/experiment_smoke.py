#!/usr/bin/env python
"""Black-box smoke test of the service's adaptive experiments.

Drives ``bingo-sim serve`` the way an operator running a parameter
search would — separate process, real HTTP, the ``/experiments`` API:

1. start ``bingo-sim serve`` on an ephemeral port;
2. wait for ``GET /healthz``;
3. POST a 12-point space (2 workloads x 6 next-line degrees) with a
   two-round successive-halving schedule (750 -> 1500 -> 3000
   instructions) and poll ``GET /experiments/<id>`` to completion;
4. assert the halving actually screened: three rounds, candidate
   counts 12 -> 6 -> 3, each round running exactly the previous
   round's promotions, and a winner from the full-length rung;
5. assert the winner's full-length result is answered from the shared
   result cache when the same spec is re-submitted as a plain job;
6. SIGTERM the daemon and assert it drains cleanly (exit code 0).

Exit code 0 means the whole sequence held.  Run via
``make experiment-smoke`` or directly:
``PYTHONPATH=src python tools/experiment_smoke.py``.
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.serve.client import ServiceClient, ServiceUnavailable  # noqa: E402

HEALTH_DEADLINE = 60.0
EXPERIMENT_DEADLINE = 300.0
DRAIN_DEADLINE = 30.0

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
SCHEDULE = {"screen": 750, "full": 3000, "eta": 2}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(client: ServiceClient) -> None:
    deadline = time.monotonic() + HEALTH_DEADLINE
    while time.monotonic() < deadline:
        try:
            health = client.health()
        except (OSError, ServiceUnavailable):  # not listening yet
            time.sleep(0.1)
            continue
        if health.get("ok"):
            return
        time.sleep(0.1)
    raise SystemExit("FAIL: daemon never became healthy")


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    port = free_port()
    with tempfile.TemporaryDirectory(prefix="experiment-smoke-") as tmp:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(REPO_ROOT, "src"),
                          env.get("PYTHONPATH")])
        )
        env.setdefault("REPRO_CACHE_DIR", os.path.join(tmp, "cache"))
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(port),
                "--workers", "2",
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
            wait_healthy(client)
            print(f"ok: daemon healthy on port {port}")

            accepted = client.submit_experiment(
                SPACE, schedule=SCHEDULE, objective="throughput"
            )
            if accepted["points"] != 12:
                return fail(f"expected 12 points, got {accepted['points']}")
            if accepted["rungs"] != [750, 1500, 3000]:
                return fail(f"unexpected rungs: {accepted['rungs']}")
            print(f"ok: experiment {accepted['id']} accepted "
                  f"({accepted['points']} points, rungs {accepted['rungs']})")

            record = client.wait_experiment(
                accepted["id"], timeout=EXPERIMENT_DEADLINE, poll_interval=0.2
            )
            if record["state"] != "done":
                return fail(f"experiment ended {record['state']}: "
                            f"{record.get('error')}")

            rounds = record["rounds"]
            candidates = [r["candidates"] for r in rounds]
            if candidates != [12, 6, 3]:
                return fail(f"halving did not screen: candidates {candidates}")
            for previous, current in zip(rounds, rounds[1:]):
                ran = sorted(entry["point"] for entry in current["results"])
                if ran != sorted(previous["promoted"]):
                    return fail(
                        f"round {current['round']} ran {ran}, but the "
                        f"previous round promoted {previous['promoted']}"
                    )
            print(f"ok: screens promoted {candidates[0]} -> "
                  f"{candidates[1]} -> {candidates[2]} -> winner")

            winner = record["winner"]
            if winner is None or winner["instructions"] != 3000:
                return fail(f"winner not from the full-length rung: {winner}")
            print(f"ok: winner {winner['spec']['workload']}/"
                  f"{winner['spec']['prefetcher_kwargs']} "
                  f"scored {winner['score']:.3f} {winner['metric']}")

            totals_before = client.metrics()["executor_totals"]
            resubmit = client.submit(winner["spec"])
            rerun = client.wait(resubmit["id"], timeout=60.0)
            if rerun["state"] != "done":
                return fail(f"winner re-run ended {rerun['state']}")
            totals = client.metrics()["executor_totals"]
            new_hits = totals.get("cache_hits", 0) - \
                totals_before.get("cache_hits", 0)
            if new_hits < 1:
                return fail("winner re-submission missed the result cache "
                            f"(totals {totals})")
            print("ok: winner re-submission answered from the result cache")

            daemon.send_signal(signal.SIGTERM)
            try:
                code = daemon.wait(timeout=DRAIN_DEADLINE)
            except subprocess.TimeoutExpired:
                return fail("daemon did not drain within "
                            f"{DRAIN_DEADLINE:g}s of SIGTERM")
            if code != 0:
                return fail(f"daemon exited {code} after SIGTERM")
            print("ok: SIGTERM drained cleanly (exit 0)")
            print("PASS: experiment smoke")
            return 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
