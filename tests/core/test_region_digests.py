"""Pinned results for every prefetcher on the region front end.

Bingo, SMS, SFP and the multi-event prefetcher share one filter /
accumulation front end (:class:`repro.core.regions.RegionPrefetcher`).
The golden traces pin Bingo's and SMS's event streams; these digests pin
the whole ``SimResult`` of all four, the most-recent short-match policy
and the Fig. 4 redundancy counters, so a change to the front end, a
history table or a prediction path cannot move a result unnoticed.

Settings are ``bingo-sim check``'s defaults on a compiled trace
(``small_system(4)``, scale 0.02, 8,000 instructions per core with a
1,000-instruction warm-up, seed 11).  At them every configuration hits
its history, ``mix3`` and ``sat_solver`` vote over several short-event
matches (so the vote and most-recent digests differ), and the runs see
residency commits, capacity commits and early closes.

A digest is the sha256 of ``json.dumps(result.to_dict(), sort_keys=True,
separators=(",", ":"))``.  Never regenerate one to make a change pass:
a moved digest is a behaviour change.
"""

import functools
import hashlib
import json

import pytest

from repro.common.config import small_system
from repro.core.events import EventKind
from repro.obs.sinks import RecordingSink
from repro.sim.runner import run_simulation

CONFIGS = {
    "bingo": ("bingo", {}),
    "bingo-most-recent": ("bingo", {"short_match_policy": "most_recent"}),
    "sms": ("sms", {}),
    "sfp": ("sfp", {}),
    "multi-event": ("multi-event", {}),
    "multi-event-fig4": (
        "multi-event",
        {
            "kinds": (EventKind.PC_ADDRESS, EventKind.PC_OFFSET),
            "measure_redundancy": True,
        },
    ),
}

DIGESTS = {
    ("mix3", "bingo"):
        "09cd69a3507cd817c0189f1bc14c6236241d61fed2f331c46beddc10d5cff25e",
    ("mix3", "bingo-most-recent"):
        "c8358ddacfc3a4310cf6ddaf55bc1d08faa139689328a4a1dae6809565ddb617",
    ("mix3", "sms"):
        "07500517567bacad1e5c1222881d56b78029e772f5e29dd6c69c021da5212986",
    ("mix3", "sfp"):
        "42df69bc325ced0264a6663d29c98ef96db62c15dd2ae28d31359b2038e71b90",
    ("mix3", "multi-event"):
        "93e76eb045a3496772fa3a09e0808f6871551d72f7111e676c6ef87ef6ad0c89",
    ("mix3", "multi-event-fig4"):
        "445f4954ae005be19c0392c7b1068bbecbc0938dfbfe1dfb24f7c46d2fc04fe3",
    ("em3d", "bingo"):
        "850fe88c13ca65adfa18b5dddd09bb69e2a6a017327f5ad3201150ac14f66b81",
    ("em3d", "bingo-most-recent"):
        "850fe88c13ca65adfa18b5dddd09bb69e2a6a017327f5ad3201150ac14f66b81",
    ("em3d", "sms"):
        "f524fa52e9011dcdf827a83df8f57a7639f5c38bad5dc2b4d71f2ae9a36b6707",
    ("em3d", "sfp"):
        "c949e67bbfb30355152eb1f5910f59b263990d949fdc532511326b44ebfe8c09",
    ("em3d", "multi-event"):
        "7c33c8eb773c27a2d9b62314a3c72fcd082e1b5807fb36153ab83c26ff222661",
    ("em3d", "multi-event-fig4"):
        "4cf7f3bf9f8bea0bf522aaced216b9bd1ef5a95b51348be1686ba42a85596043",
    ("sat_solver", "bingo"):
        "9f5f3ebb525311d9371a4289e30a03007e251a34f6c8664cdd7427888a898b78",
    ("sat_solver", "bingo-most-recent"):
        "00998b890d9ee0d76ce3ca7537e41fd31b890c90c13f6c2cf164ced6fd4ee671",
    ("sat_solver", "sms"):
        "7dd5e321d99359134da3fb68b00ab4f472b21d56d88ac252d523ce23a87e1880",
    ("sat_solver", "sfp"):
        "31b3e1ccde8d0fda2b9c65e0ed384193a817e9deb30a74a193463b2b46c9115c",
    ("sat_solver", "multi-event"):
        "14f327148f15c1fd5cb3f69b34df7fd254363857ac38ce913891d204e44c1164",
    ("sat_solver", "multi-event-fig4"):
        "d805108089148b97ee101aec2ab71cd12c6b7d3108c99ff56c42eb7d8c92dee8",
}

WORKLOADS = ("mix3", "em3d", "sat_solver")


@functools.lru_cache(maxsize=None)
def _run(workload, label):
    prefetcher, kwargs = CONFIGS[label]
    return run_simulation(
        workload,
        prefetcher=prefetcher,
        prefetcher_kwargs=kwargs,
        system=small_system(num_cores=4),
        instructions_per_core=8000,
        warmup_instructions=1000,
        seed=11,
        scale=0.02,
    )


def _digest(result):
    encoded = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


@pytest.mark.parametrize("workload, label", sorted(DIGESTS))
def test_result_matches_pinned_digest(workload, label):
    assert _digest(_run(workload, label)) == DIGESTS[workload, label]


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_pins_exercise_the_front_end(label):
    """Each configuration predicts from its history and sees early closes."""
    counters = [_run(workload, label).prefetcher_counters
                for workload in WORKLOADS]
    assert sum(c.get("lookup_hits", 0) for c in counters) > 0
    for c in counters:
        assert c.get("commits", 0) > 0
        assert c.get("residency_early_close", 0) > 0
    if label == "multi-event-fig4":
        assert sum(c.get("redundancy_lookups", 0) for c in counters) > 0


#: tables small enough that every eviction report the front end traces
#: occurs: filter drops, capacity and residency commits and, for Bingo,
#: history evictions
SMALL_TABLES = {
    "history_entries": 64,
    "history_ways": 4,
    "filter_sets": 2,
    "filter_ways": 2,
    "accumulation_sets": 1,
    "accumulation_ways": 4,
}

STREAM_DIGESTS = {
    ("bingo", "l1"):
        "712aacb7eb78478f019f2b94f8fda7726425483e581581f798c16c8b9232c77f",
    ("bingo", "llc"):
        "3490f3c53a2588492ce37f3ef61c9a31788a535ccf943eee9d460e6ac5b9edfd",
    ("sms", "l1"):
        "db9272e4231c1000faa400d8799a52013109323f3c743ba324676e61e8b3f03e",
    ("sms", "llc"):
        "abe45176070726caba7d8d6209f621a0f7ea4d0abb216f619575acfdc96cb5e7",
}


@pytest.mark.parametrize("prefetcher, train_at", sorted(STREAM_DIGESTS))
def test_event_stream_matches_pinned_digest(prefetcher, train_at):
    """The whole trace stream of a small-table run, in order, so every
    eviction report (an ``Eviction`` and the ``RegionCommit`` or
    ``HistoryEvict`` it causes) lands where it always has between the
    events around it."""
    sink = RecordingSink()
    run_simulation(
        "mix3",
        prefetcher=prefetcher,
        prefetcher_kwargs=SMALL_TABLES,
        system=small_system(num_cores=4),
        instructions_per_core=6000,
        warmup_instructions=1000,
        seed=11,
        scale=0.02,
        train_at=train_at,
        sink=sink,
    )
    kinds = {event.kind for event in sink.events}
    assert {"eviction", "region_drop", "region_commit"} <= kinds
    assert ("history_evict" in kinds) == (prefetcher == "bingo")
    causes = {e.cause for e in sink.events if e.kind == "region_commit"}
    assert causes == {"capacity", "residency"}
    digest = hashlib.sha256()
    for event in sink.events:
        digest.update(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        )
    assert digest.hexdigest() == STREAM_DIGESTS[prefetcher, train_at]

