"""The fast loop's walk on hand-built traces, against the general loop.

The walk retires a run of compute records in one tight loop, split where
the ROB's retire ring wraps, and keys each core's list L1 by virtual
block while the set index and the LRU victim stay physical.  Each test
builds a compiled two-core trace that steers records into one of those
corners and holds the fast loop to the general loop field for field,
the L1 counters at the warm-up snapshot included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import CacheConfig, CoreConfig, SystemConfig
from repro.cpu.trace import TraceRecord
from repro.sim.compile.packed import pack_records
from repro.sim.compile.workload import CompiledWorkload
from repro.sim.engine import SimulationEngine, SimulationParams

ROB = 16
PAGE = 4096
BLOCK = 64

#: a 16-entry ROB, so short traces stall and wrap the ring often, and an
#: L1 of 128 sets: more sets than a page has blocks, so a block's set
#: index takes a bit from its frame number
SYSTEM = SystemConfig(
    num_cores=2,
    core=CoreConfig(rob_entries=ROB),
    l1d=CacheConfig(size_bytes=16 * 1024, ways=2, hit_latency=4, mshr_entries=8),
    llc=CacheConfig(size_bytes=64 * 1024, ways=8, hit_latency=15, mshr_entries=32),
)

L1_COUNTERS = ("accesses", "hits", "misses")


def compute(count):
    return [TraceRecord(0x400)] * count


def load(address, dependent=False):
    return [TraceRecord(0x500, address, True, False, dependent)]


def store(address):
    return [TraceRecord(0x600, address, True, True)]


def run_both(cores, warmup=0, instructions=None):
    """Run ``cores`` (one record list per core) on both loops.

    Asserts equal ``SimResult``s and equal L1 counters at every stats
    snapshot (the warm-up mark and the end), and returns the fast
    loop's ``(result dict, snapshots, engine)``.
    """
    length = max(len(records) for records in cores)
    workload = CompiledWorkload(
        "walk",
        [
            pack_records(iter(records + compute(length - len(records))), length)
            for records in cores
        ],
    )
    params = SimulationParams(
        instructions_per_core=instructions or length,
        warmup_instructions=warmup,
    )
    system = replace(SYSTEM, num_cores=len(cores))
    runs = {}
    for vectorized in (True, False):
        engine = SimulationEngine(
            workload, "none", system, params, vectorized=vectorized
        )
        assert engine._fast_path_eligible() == vectorized
        snapshots = []
        take = engine.stats.snapshot

        def snapshot(take=take, snapshots=snapshots):
            taken = take()
            snapshots.append(
                {
                    key: value
                    for key, value in taken.items()
                    if ".l1d" in key
                    and key.rsplit(".", 1)[1] in L1_COUNTERS
                }
            )
            return taken

        engine.stats.snapshot = snapshot
        runs[vectorized] = (engine.run().to_dict(), snapshots, engine)
    fast, general = runs[True], runs[False]
    assert fast[0] == general[0]
    assert len(fast[1]) == 2
    assert fast[1] == general[1]
    return fast


@pytest.mark.parametrize("run", [1, ROB - 1, ROB, ROB + 1, 3 * ROB + 7])
def test_compute_runs_of_every_length(run):
    """Runs of 1, ``rob - 1``, ``rob``, ``rob + 1`` and ``3 * rob + 7``
    records between memory records; the trace starts and ends with a
    run, a run follows a cold miss (a ROB stall inside the run once it
    is at least ``rob`` long), and a dependent load follows a run."""
    base = 7 * PAGE
    trace = (
        compute(run)
        + load(base)  # cold: a DRAM miss
        + compute(run)
        + load(base + 8, dependent=True)  # an L1 hit behind the miss
        + compute(run)
        + store(base + BLOCK)
        + compute(run)
        + load(base + 2 * BLOCK, dependent=True)
        + compute(run)
    )
    result, _, _ = run_both([trace, trace])
    cycles = [core["cycles"] for core in result["cores"]]
    # the dependent loads wait for the misses, far beyond 4-wide dispatch
    assert min(cycles) > 240 + len(trace) / 4


def test_a_run_crossing_the_ring_wrap_stalls_on_the_right_slots():
    """Misses land at ring slots 3 and 9; the following runs start
    mid-ring and cross the wrap twice, so every slot a run reads was
    written ``rob`` records earlier, some of them by a slow miss."""
    trace = (
        compute(3)
        + load(PAGE)
        + compute(5)
        + load(2 * PAGE)
        + compute(2 * ROB + 5)
        + load(3 * PAGE, dependent=True)
        + compute(2 * ROB + 1)
    )
    result, _, engine = run_both([trace, compute(4) + trace])
    ring = engine.cores[0]._retire_ring
    # the stall propagated: the last ROB's worth retired after the misses
    assert min(ring) > 240


def test_warmup_and_budget_end_inside_runs():
    """The warm-up budget stops the walk in the middle of a run and the
    measured window resumes there; the run budget stops inside the last
    run, short of the trace's end."""
    trace = (
        load(PAGE)
        + compute(3 * ROB + 7)
        + load(PAGE + BLOCK)
        + load(PAGE)
        + compute(ROB + 1)
        + load(5 * PAGE, dependent=True)
        + compute(2 * ROB)
    )
    warmup = 1 + ROB + 3
    result, snapshots, _ = run_both(
        [trace, trace[1:] + compute(1)],
        warmup=warmup,
        instructions=len(trace) - 5,
    )
    assert [core["instructions"] for core in result["cores"]] == [
        len(trace) - 5 - warmup
    ] * 2
    # core 0's warm-up saw one access, a miss; the end saw four
    warm = snapshots[0]
    assert warm["run.memsys.l1d0.accesses"] == 1
    assert warm["run.memsys.l1d0.misses"] == 1
    end = snapshots[1]
    assert end["run.memsys.l1d0.accesses"] == 4
    assert end["run.memsys.l1d0.hits"] == 1


def test_identical_virtual_addresses_conflict_by_physical_set():
    """Both cores touch the same virtual blocks, offset 0 of pages 0, 2,
    4 and 6, twice over.  The 2-way L1 has 128 sets, so a block's set
    index takes bit 0 of its frame: by virtual page all four blocks
    would share one set and the second pass would miss throughout, but
    their frames straddle two sets, so some blocks survive to hit."""
    pages = (0, 2, 4, 6)
    sweep = []
    for page in pages:
        sweep += load(page * PAGE) + compute(2)
    trace = sweep + compute(ROB) + sweep
    _, snapshots, engine = run_both([trace, trace])
    mapping = engine.hierarchy.translator.mapping_view()
    end = snapshots[1]
    for core_id in range(2):
        assert {mapping[(core_id, page)] & 1 for page in pages} == {0, 1}
        assert end[f"run.memsys.l1d{core_id}.accesses"] == 8
        assert 0 < end[f"run.memsys.l1d{core_id}.hits"] < 4
