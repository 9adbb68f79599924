"""Golden-trace regression suite.

Each fixture in ``tests/golden/`` pins one small deterministic run per
prefetcher: its first 500 trace events and its complete final stat
tree.  Re-running the same spec today must reproduce the fixture
*exactly* — the simulator is a pure function of its job spec, so any
diff here is a behaviour change that either needs a fix or a reviewed
fixture regeneration (``PYTHONPATH=src python tools/update_golden.py``).

On a mismatch the assertions point at the first diverging event rather
than dumping two 500-element lists.
"""

import json
from pathlib import Path

import pytest

from repro.common.config import small_system
from repro.obs.golden import (
    GOLDEN_EVENT_LIMIT,
    GOLDEN_PREFETCHERS,
    GOLDEN_SCHEMA,
    golden_spec,
    load_golden,
    record_golden,
)
from repro.obs.sinks import RecordingSink
from repro.sim.compile import compile_workload
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.workloads.registry import make_workload

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture(scope="module", params=GOLDEN_PREFETCHERS)
def golden_pair(request):
    """(fixture-on-disk, fresh recording) for one prefetcher."""
    name = request.param
    return load_golden(GOLDEN_DIR, name), record_golden(name)


def test_all_fixtures_exist():
    missing = [
        name for name in GOLDEN_PREFETCHERS
        if not (GOLDEN_DIR / f"{name}.json").is_file()
    ]
    assert not missing, (
        f"missing golden fixtures {missing}; run tools/update_golden.py"
    )


def test_fixture_schema_and_spec_are_current(golden_pair):
    fixture, _fresh = golden_pair
    assert fixture["schema"] == GOLDEN_SCHEMA
    assert fixture["spec"] == golden_spec(fixture["spec"]["prefetcher"])


def test_events_replay_identically(golden_pair):
    fixture, fresh = golden_pair
    expected, actual = fixture["events"], fresh["events"]
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"event {index} diverged: expected {want!r}, got {got!r}"
        )
    assert len(actual) == len(expected)


def test_final_stats_replay_identically(golden_pair):
    fixture, fresh = golden_pair
    # The fixture went through json.dump, so normalise the fresh stats
    # the same way before comparing (int/float and key-order neutral).
    normalised = json.loads(json.dumps(fresh["stats"], sort_keys=True))
    assert normalised == fixture["stats"]


def test_fast_loop_replays_the_fixture(golden_pair):
    """The spec on its compiled trace, through the fast loop, gives the
    fixture's events and stats: a trace sink does not need the general
    loop."""
    fixture, _fresh = golden_pair
    spec = fixture["spec"]
    sink = RecordingSink(limit=GOLDEN_EVENT_LIMIT)
    engine = SimulationEngine(
        workload=compile_workload(
            make_workload(spec["workload"], seed=spec["seed"], scale=spec["scale"]),
            records_per_core=spec["instructions_per_core"],
            scale=spec["scale"],
        ),
        prefetcher=spec["prefetcher"],
        system=small_system(num_cores=spec["num_cores"]),
        params=SimulationParams(
            instructions_per_core=spec["instructions_per_core"],
            warmup_instructions=spec["warmup_instructions"],
        ),
        sink=sink,
    )
    assert engine._fast_path_eligible()
    engine._run_until = None  # the fast loop must never touch it
    result = engine.run()
    assert [event.to_dict() for event in sink.events] == fixture["events"]
    stats = json.loads(json.dumps(result.raw_stats, sort_keys=True))
    assert stats == fixture["stats"]


def test_fixture_events_are_diverse(golden_pair):
    """Guard the suite's power: a fixture of nothing pins nothing.

    The first 500 events of a run are its cold/training phase, so
    table-trained prefetchers (bingo, sms) legitimately show no issued
    prefetches yet — but every fixture must at least capture live
    demand traffic, and decision-level events where the mechanism emits
    them from the first access (bingo votes on every history lookup).
    """
    fixture, _fresh = golden_pair
    kinds = {event["kind"] for event in fixture["events"]}
    assert {"demand_hit", "demand_miss"} <= kinds
    name = fixture["spec"]["prefetcher"]
    if name == "bingo":
        assert "vote_decision" in kinds
    if name in ("bop", "spp"):
        assert {"prefetch_issued", "prefetch_fill"} <= kinds
    # end-of-run totals prove the run as a whole did prefetch
    llc = fixture["stats"]["memsys"]["llc"]
    assert llc["prefetches_issued"] > 0
