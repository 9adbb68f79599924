"""Import-surface contract: the simulator needs no numpy.

No module under ``src/`` imports numpy and ``pyproject.toml`` declares
no dependency on it, so a numpy-free install runs both engine loops —
the fast loop included.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_fast_loop_runs_without_numpy():
    """With every numpy import raising, a compiled run still takes the
    fast loop and equals the general loop."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
