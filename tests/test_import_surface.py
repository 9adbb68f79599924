"""Import-surface contract: the simulator needs no numpy, and the
package imports in any order.

No module under ``src/`` imports numpy and ``pyproject.toml`` declares
no dependency on it, so a numpy-free install runs both engine loops —
the fast loop included.

``repro.core.regions`` imports the prefetcher base class while
``repro.prefetchers.sms`` builds on ``repro.core``, so whichever of them
a program imports first must not meet the other half-initialised.  The
prefetcher zoo registers on first use, which the service's request
handlers can reach from several threads at once, and which a plugin's
``register`` call can come before.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: run in a fresh interpreter so the blocked import cannot leak into (or
#: be masked by) modules this test process already imported
_NUMPY_FREE_RUN = r'''
import sys


class NoNumpy:
    """Meta-path finder that makes every numpy import raise."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"No module named {name!r}")
        return None


sys.meta_path.insert(0, NoNumpy())

from repro.common.config import small_system
from repro.sim.compile import compile_workload
from repro.sim.engine import (
    SimulationEngine,
    SimulationParams,
    engine_tier_counters,
)
from repro.workloads.registry import make_workload

system = small_system(num_cores=4)
params = SimulationParams(instructions_per_core=2000, warmup_instructions=500)
workload = compile_workload(
    make_workload("streaming", seed=7, scale=0.02), records_per_core=2000
)
general = SimulationEngine(
    workload, "bingo", system, params, vectorized=False
).run()
before = engine_tier_counters()["vectorized"]
fast = SimulationEngine(workload, "bingo", system, params).run()
assert engine_tier_counters()["vectorized"] == before + 1, "fast loop skipped"
assert fast.to_dict() == general.to_dict(), "fast loop diverged"
print("ok")
'''


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_fast_loop_runs_without_numpy():
    """With every numpy import raising, a compiled run still takes the
    fast loop and equals the general loop."""
    done = _run_fresh(_NUMPY_FREE_RUN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_concurrent_first_use_builds_every_prefetcher():
    """Eight threads build a prefetcher at once in a fresh interpreter:
    none sees the zoo half-registered or registers it twice."""
    done = _run_fresh(
        "import sys, threading\n"
        "from repro.prefetchers.registry import make_prefetcher\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, errors = threading.Barrier(8), []\n"
        "def build():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        make_prefetcher('bingo')\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=build) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(60)\n"
        "assert not any(thread.is_alive() for thread in threads)\n"
        "print(errors or 'ok')\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_plugin_registered_first_keeps_the_zoo():
    done = _run_fresh(
        "from repro.prefetchers.base import NullPrefetcher\n"
        "from repro.prefetchers.registry import make_prefetcher, register\n"
        "register('plugin', NullPrefetcher)\n"
        "print(make_prefetcher('bingo').name)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "bingo"


@pytest.mark.parametrize(
    "first",
    [
        "repro",
        "repro.core.regions",
        "repro.core.bingo",
        "repro.core.multi_event",
        "repro.prefetchers",
        "repro.prefetchers.sms",
        "repro.prefetchers.registry",
    ],
)
def test_region_prefetchers_import_in_any_order(first):
    """Import ``first`` before anything else, then build every
    prefetcher on the region front end by name."""
    done = _run_fresh(
        f"import {first}\n"
        "from repro.prefetchers.registry import make_prefetcher\n"
        "for name in ('bingo', 'sms', 'sfp', 'multi-event'):\n"
        "    assert make_prefetcher(name).name == name, name\n"
        "print('ok')\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
