"""Property tests for snapshot/delta algebra on the stat tree.

The timeline recorder's whole contract rests on one algebraic fact:
for *any* partition of a run into intervals, the per-interval snapshot
deltas of every counter sum to the whole-run total.  Hypothesis drives
it with arbitrary increment schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import StatGroup

# A bounded universe of counter paths: (child-or-None, counter name).
PATHS = st.tuples(
    st.sampled_from([None, "llc", "dram", "core0"]),
    st.sampled_from(["hits", "misses", "fills", "cycles"]),
)

# One simulated "event": which counter to bump, and by how much.
INCREMENTS = st.tuples(PATHS, st.integers(min_value=1, max_value=1000))


def snapshot_delta(before, after):
    return {path: value - before.get(path, 0) for path, value in after.items()}


def apply_increment(root, increment):
    (child, counter), amount = increment
    group = root.child(child) if child else root
    group.add(counter, amount)


@given(
    events=st.lists(INCREMENTS, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_interval_deltas_sum_to_whole_run_totals(events, cuts):
    """Any partition of the event stream re-sums to the run totals."""
    root = StatGroup("memsys")
    boundaries = sorted(set(min(c, len(events)) for c in cuts))

    start = root.snapshot()
    deltas = []
    previous = start
    position = 0
    for boundary in boundaries + [len(events)]:
        for event in events[position:boundary]:
            apply_increment(root, event)
        position = boundary
        current = root.snapshot()
        deltas.append(snapshot_delta(previous, current))
        previous = current

    totals = snapshot_delta(start, root.snapshot())
    summed = {}
    for delta in deltas:
        for path, value in delta.items():
            summed[path] = summed.get(path, 0) + value
    # Intervals that saw no new counters simply omit them; drop zeros so
    # the comparison is on substance, not key sets.
    summed = {p: v for p, v in summed.items() if v}
    totals = {p: v for p, v in totals.items() if v}
    assert summed == totals


@given(events=st.lists(INCREMENTS, max_size=60))
@settings(max_examples=200, deadline=None)
def test_snapshot_agrees_with_string_reads(events):
    """snapshot() paths read the same values as get() on each group."""
    root = StatGroup("memsys")
    for event in events:
        apply_increment(root, event)
    for path, value in root.snapshot().items():
        parts = path.split(".")
        assert parts[0] == "memsys"
        group = root
        for name in parts[1:-1]:
            group = group.child(name)
        assert group.get(parts[-1]) == value


def test_snapshot_is_a_copy_not_a_view():
    group = StatGroup("llc")
    group.add("hits", 3)
    snap = group.snapshot()
    group.add("hits", 4)
    assert snap["llc.hits"] == 3
    assert group.snapshot()["llc.hits"] == 7
