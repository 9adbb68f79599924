"""MSHR file: merging, back-pressure, expiry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.mshr import MshrFile


class TestMerge:
    def test_merge_returns_completion(self):
        mshr = MshrFile(entries=4)
        mshr.commit(block=10, finish=100.0)
        assert mshr.merge(10, now=50.0) == 100.0

    def test_completed_miss_does_not_merge(self):
        mshr = MshrFile(entries=4)
        mshr.commit(block=10, finish=100.0)
        assert mshr.merge(10, now=150.0) is None

    def test_unrelated_block_does_not_merge(self):
        mshr = MshrFile(entries=4)
        mshr.commit(block=10, finish=100.0)
        assert mshr.merge(11, now=50.0) is None


class TestBackPressure:
    def test_reserve_without_pressure_is_immediate(self):
        mshr = MshrFile(entries=2)
        assert mshr.reserve(now=5.0) == 5.0

    def test_full_file_stalls_until_oldest_retires(self):
        mshr = MshrFile(entries=2)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)
        start = mshr.reserve(now=10.0)
        assert start == 100.0  # waits for the oldest outstanding miss
        assert mshr.stats.get("stalls") == 1

    def test_expired_entries_free_slots(self):
        mshr = MshrFile(entries=1)
        mshr.commit(1, finish=50.0)
        assert mshr.reserve(now=60.0) == 60.0  # entry already expired

    def test_outstanding_counts_live_entries(self):
        mshr = MshrFile(entries=4)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=50.0)
        assert mshr.outstanding(now=75.0) == 1
        assert mshr.outstanding(now=150.0) == 0

    def test_allocate_combines_reserve_and_commit(self):
        mshr = MshrFile(entries=1)
        mshr.commit(1, finish=100.0)
        start = mshr.allocate(2, now=10.0, completion=310.0)
        assert start == 100.0
        # The completion was shifted by the 90-cycle stall.
        assert mshr.merge(2, now=150.0) == 400.0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MshrFile(entries=0)


class TestReRegistration:
    def test_stale_heap_entries_are_ignored(self):
        """A block re-registered with a later finish must not be expired by
        its stale earlier heap entry."""
        mshr = MshrFile(entries=4)
        mshr.commit(1, finish=50.0)
        mshr.commit(1, finish=200.0)  # re-registered
        assert mshr.merge(1, now=100.0) == 200.0


class TestReserveKeepsEntries:
    """Regression: ``reserve`` on a full file used to *pop* the blocking
    entries, so a stalled miss destroyed the merge window of every miss
    still in flight and re-registered blocks could charge several stalls
    for one reservation."""

    def test_inflight_misses_still_merge_after_full_reserve(self):
        mshr = MshrFile(entries=2)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)
        assert mshr.reserve(now=10.0) == 100.0
        # the blocking misses are still in flight and must keep merging
        assert mshr.merge(1, now=50.0) == 100.0
        assert mshr.merge(2, now=50.0) == 200.0

    def test_one_stall_per_reservation_despite_stale_heap_entries(self):
        mshr = MshrFile(entries=1)
        mshr.commit(1, finish=50.0)
        mshr.commit(1, finish=200.0)  # stale (50.0, 1) left in the heap
        assert mshr.reserve(now=10.0) == 200.0
        assert mshr.stats.get("stalls") == 1

    def test_repeated_reserves_see_the_same_entries(self):
        mshr = MshrFile(entries=2)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)
        assert mshr.reserve(now=10.0) == 100.0
        # nothing was consumed: a second reservation waits on the same miss
        assert mshr.reserve(now=20.0) == 100.0
        assert mshr.stats.get("stalls") == 2

    def test_occupancy_never_exceeds_entries_during_stall(self):
        mshr = MshrFile(entries=2)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)
        start = mshr.reserve(now=10.0)
        mshr.commit(3, finish=300.0, start=start)
        # three registered misses, but only two physically hold entries
        assert mshr.outstanding(now=50.0) == 3
        assert mshr.occupancy(now=50.0) == 2
        # block 1 retires at 100 and the stalled miss takes its entry
        assert mshr.occupancy(now=150.0) == 2

    def test_occupancy_defaults_to_occupied_from_registration(self):
        mshr = MshrFile(entries=4)
        mshr.commit(1, finish=100.0)  # no start: unstalled miss
        assert mshr.occupancy(now=0.0) == 1
        assert mshr.occupancy(now=150.0) == 0


class _ScanCountingDict(dict):
    """Counts whole-structure iterations; point lookups stay free."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def values(self):
        self.scans += 1
        return super().values()

    def keys(self):
        self.scans += 1
        return super().keys()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestOccupancyIsNotALinearScan:
    """Regression: ``occupancy(now)`` used to iterate every in-flight
    entry per call.  On the hot miss path it is called once per L1 miss
    by the invariant checker, so with N live misses that was O(N) per
    miss.  Two bisections of the sorted lists replace it; this test
    pins that by counting whole-dict scans."""

    def test_occupancy_does_not_scan_the_inflight_dict(self):
        mshr = MshrFile(entries=64)
        spy = _ScanCountingDict()
        mshr._inflight = spy
        for block in range(48):
            mshr.commit(block, finish=1000.0 + block)
        spy.scans = 0  # ignore construction-time traffic
        for now in range(0, 900, 10):
            mshr.occupancy(now=float(now))
        assert spy.scans == 0

    def test_occupancy_stays_exact_against_a_reference_scan(self):
        # Drive a stall-heavy schedule and diff the fast occupancy
        # against the old linear-scan definition at every step.
        mshr = MshrFile(entries=2)
        schedule = [
            (1, 10.0, 100.0),
            (2, 20.0, 200.0),
            (3, 30.0, 300.0),  # stalls behind 1
            (4, 40.0, 400.0),  # stalls behind 2
            (5, 210.0, 500.0),  # issues after 1 and 2 retired
        ]
        probes = [0.0, 50.0, 99.0, 100.0, 150.0, 205.0, 250.0, 600.0]
        probe_iter = iter(sorted(probes))
        next_probe = next(probe_iter, None)
        for block, now, completion in schedule:
            while next_probe is not None and next_probe <= now:
                assert mshr.occupancy(next_probe) == _reference_occupancy(
                    mshr, next_probe
                )
                next_probe = next(probe_iter, None)
            mshr.allocate(block, now=now, completion=completion)
        while next_probe is not None:
            assert mshr.occupancy(next_probe) == _reference_occupancy(
                mshr, next_probe
            )
            next_probe = next(probe_iter, None)


def _reference_occupancy(mshr, now):
    """The original O(N) definition, computed on live internal state."""
    starts = {block: start for start, block in mshr._stalled}
    count = 0
    for block, finish in mshr._inflight.items():
        if finish <= now:
            continue
        start = starts.get(block)
        if start is None or start <= now:
            count += 1
    return count


class TestProbesAreReadOnly:
    """Regression: ``occupancy`` used to expire entries at the probe's
    time.  The invariant checker probes at the hierarchy's global clock,
    so it deleted a core's in-flight misses before that core's later
    misses could merge or stall behind them."""

    def test_occupancy_leaves_a_later_merge_unchanged(self):
        probed, plain = MshrFile(entries=4), MshrFile(entries=4)
        for mshr in (probed, plain):
            mshr.commit(1, finish=100.0)
        assert probed.occupancy(now=150.0) == 0
        assert probed.merge(1, now=50.0) == plain.merge(1, now=50.0) == 100.0

    def test_outstanding_leaves_a_later_reservation_unchanged(self):
        probed, plain = MshrFile(entries=1), MshrFile(entries=1)
        for mshr in (probed, plain):
            mshr.commit(1, finish=100.0)
        assert probed.outstanding(now=150.0) == 0
        assert probed.reserve(now=50.0) == plain.reserve(now=50.0) == 100.0


class _ModelMshr:
    """Brute-force MSHR semantics over dicts.

    A call at ``now`` forgets the misses finished at or before ``now``
    and the stalls whose start ``now`` has reached; a new miss waits for
    the ``overflow``-th earliest live finish.  A commit records a stall
    only if its start lies after every ``now`` seen so far (earlier
    starts have already claimed their entry) and before its finish.
    """

    def __init__(self, entries):
        self.entries = entries
        self.finish = {}  # block -> completion time
        self.waiting = {}  # block -> start of a stall not yet reached
        self.clock = float("-inf")
        self.merges = self.stalls = self.allocations = 0

    def _expire(self, now):
        self.clock = max(self.clock, now)
        self.finish = {b: f for b, f in self.finish.items() if f > now}
        self.waiting = {b: s for b, s in self.waiting.items() if s > now}

    def merge(self, block, now):
        self._expire(now)
        if block in self.finish:
            self.merges += 1
        return self.finish.get(block)

    def reserve(self, now):
        self._expire(now)
        overflow = len(self.finish) - self.entries + 1
        if overflow <= 0:
            return now
        self.stalls += 1
        return max(now, sorted(self.finish.values())[overflow - 1])

    def acquire(self, block, now):
        merged = self.merge(block, now)
        if merged is not None:
            return merged, now
        return None, self.reserve(now)

    def commit(self, block, finish, start):
        self.finish[block] = finish
        self.waiting.pop(block, None)
        if start is not None and self.clock < start < finish:
            self.waiting[block] = start
        self.allocations += 1

    def occupancy(self, now):
        return sum(
            1
            for block, finish in self.finish.items()
            if finish > now and self.waiting.get(block, now) <= now
        )

    def outstanding(self, now):
        return sum(1 for finish in self.finish.values() if finish > now)


_times = st.integers(min_value=0, max_value=60).map(float)
_blocks = st.integers(min_value=0, max_value=9)
_operations = st.lists(
    st.one_of(
        # a demand miss as both engine loops issue it: acquire, then
        # commit the new miss ``latency`` cycles after its start
        st.tuples(
            st.just("acquire"), _blocks, _times,
            st.integers(min_value=1, max_value=40).map(float),
        ),
        # a direct registration, possibly of a block already in flight
        st.tuples(
            st.just("commit"), _blocks, _times, st.one_of(st.none(), _times)
        ),
        st.tuples(st.just("merge"), _blocks, _times),
        st.tuples(st.just("reserve"), _times),
        st.tuples(st.just("occupancy"), _times),
        st.tuples(st.just("outstanding"), _times),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(entries=st.integers(min_value=1, max_value=8), operations=_operations)
def test_matches_a_brute_force_model(entries, operations):
    """Every answer and counter against :class:`_ModelMshr`, under
    non-monotone time and re-registered blocks; the stalled list never
    outgrows the live misses."""
    mshr, model = MshrFile(entries), _ModelMshr(entries)
    for op, *args in operations:
        if op == "acquire":
            block, now, latency = args
            answer = mshr.acquire(block, now)
            assert answer == model.acquire(block, now)
            merged, start = answer
            if merged is None:
                mshr.commit(block, start + latency, start)
                model.commit(block, start + latency, start)
        elif op == "commit":
            block, finish, start = args
            mshr.commit(block, finish, start)
            model.commit(block, finish, start)
        else:
            assert getattr(mshr, op)(*args) == getattr(model, op)(*args), op
        stats = mshr.stats
        assert (
            stats.get("merges"), stats.get("stalls"), stats.get("allocations")
        ) == (model.merges, model.stalls, model.allocations)
        assert len(mshr._stalled) <= len(mshr._live)
