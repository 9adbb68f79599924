"""Production runs take the fast loop.

The general loop is a reference: the equality suites, ``bingo-sim
check``'s harnessed run and the benchmark's reference runs select it
through ``SimJob``'s fields.  No experiment (table, figure or
ablation) and no user-facing entry point may land on it, except for a
run that needs it: an L1-trained prefetcher.  Tier counters are per
process, so every run here stays in-process (no ``REPRO_WORKERS``, no
``REPRO_CACHE``).
"""

import dataclasses

import pytest

from repro import cli
from repro.common.config import small_system
from repro.experiments import ablations
from repro.experiments import common as excommon
from repro.experiments import (
    fig2_events,
    fig3_num_events,
    fig4_redundancy,
    fig6_storage,
    fig7_coverage,
    fig8_performance,
    fig9_density,
    fig10_isodegree,
    table2_mpki,
)
from repro.serve.jobs import job_from_wire
from repro.sim.engine import SimulationParams, engine_tier_counters
from repro.sim.executor import execute_job
from repro.sim.runner import compare_prefetchers, run_simulation
from repro.sim.sweep import sweep_prefetcher_parameter

WORKLOADS = ("streaming",)
PARAMS = SimulationParams(instructions_per_core=2000, warmup_instructions=500)

EXPERIMENTS = {
    "table2": lambda: table2_mpki.run(WORKLOADS, PARAMS),
    "fig2": lambda: fig2_events.run(WORKLOADS, params=PARAMS),
    "fig3": lambda: fig3_num_events.run(WORKLOADS, params=PARAMS),
    "fig4": lambda: fig4_redundancy.run(WORKLOADS, PARAMS),
    "fig6": lambda: fig6_storage.run(WORKLOADS, params=PARAMS),
    "fig7": lambda: fig7_coverage.run(WORKLOADS, params=PARAMS),
    "fig8": lambda: fig8_performance.run(WORKLOADS, params=PARAMS),
    "fig9": lambda: fig9_density.run(WORKLOADS, params=PARAMS),
    "fig10": lambda: fig10_isodegree.run(WORKLOADS, PARAMS),
    "unified_vs_cascaded": lambda: ablations.run_unified_vs_cascaded(
        WORKLOADS, PARAMS
    ),
    "vote_threshold": lambda: ablations.run_vote_threshold(
        WORKLOADS, params=PARAMS
    ),
    "metadata_sharing": lambda: ablations.run_metadata_sharing(
        WORKLOADS, PARAMS
    ),
    "training_level": lambda: ablations.run_training_level(WORKLOADS, PARAMS),
    "region_size": lambda: ablations.run_region_size(
        WORKLOADS, params=PARAMS
    ),
    "replacement_policy": lambda: ablations.run_replacement_policy(
        WORKLOADS, PARAMS
    ),
}

#: the one run per workload that trains Bingo at the L1
GENERAL_RUNS = {"training_level": len(WORKLOADS)}


@pytest.fixture(autouse=True)
def _in_process(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    excommon._MATRIX_CACHE.clear()
    yield
    excommon._MATRIX_CACHE.clear()


def _runs(call):
    """(fast-loop runs, general-loop runs) that ``call`` made."""
    before = engine_tier_counters()
    call()
    after = engine_tier_counters()
    return (
        after["vectorized"] - before["vectorized"],
        after["general"] - before["general"],
    )


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_takes_the_fast_loop(experiment):
    fast, general = _runs(EXPERIMENTS[experiment])
    assert fast > 0
    assert general == GENERAL_RUNS.get(experiment, 0)


SMALL = dict(
    system=small_system(num_cores=4),
    instructions_per_core=2000,
    warmup_instructions=500,
    seed=7,
    scale=0.02,
)

ENTRY_POINTS = {
    "run_simulation": (
        lambda: run_simulation("streaming", prefetcher="bingo", **SMALL), 1
    ),
    "compare_prefetchers": (
        lambda: compare_prefetchers("streaming", ["bingo"], **SMALL), 2
    ),
    "sweep_prefetcher_parameter": (
        lambda: sweep_prefetcher_parameter(
            "streaming", "nextline", "degree", [1, 2], **SMALL
        ),
        2,
    ),
    "job_from_wire": (
        lambda: execute_job(
            job_from_wire({
                "workload": "streaming",
                "prefetcher": "bingo",
                "instructions": 2000,
                "warmup": 500,
                "seed": 7,
                "scale": 0.02,
                "system": dataclasses.asdict(small_system(num_cores=4)),
            })
        ),
        1,
    ),
    "cli_run": (
        lambda: cli.main(
            ["run", "-w", "streaming", "-p", "bingo",
             "--instructions", "2000", "--warmup", "500"]
        ),
        1,
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_takes_the_fast_loop(entry, capsys):
    call, runs = ENTRY_POINTS[entry]
    assert _runs(call) == (runs, 0)
