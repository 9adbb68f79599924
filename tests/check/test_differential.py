"""End-to-end differential checks, and proof they catch planted bugs."""

import pytest

from repro.check import run_check
from repro.core.bingo import BingoPrefetcher
from repro.memsys.mshr import MshrFile

QUICK = dict(instructions_per_core=3000, warmup_instructions=500)


@pytest.mark.parametrize("prefetcher", ["bingo", "sms", "bop", "spp"])
def test_real_runs_have_no_divergences(prefetcher):
    report = run_check("streaming", prefetcher, **QUICK)
    assert report.ok, report.summary()
    assert report.accesses > 0 and report.events > 0
    assert report.l1_divergences == 0


@pytest.mark.parametrize("replacement", ["lru", "arc"])
def test_every_mode_checks_accesses(replacement):
    """The L1 diff hangs off ``hierarchy.access``, which only the
    general loop calls: the check must run the harnessed engine there
    under every policy, or it reports OK over zero checked accesses."""
    report = run_check("streaming", "bingo", **QUICK, replacement=replacement)
    assert report.ok, report.summary()
    assert report.accesses > 0


def test_report_summary_shape():
    report = run_check("em3d", "bingo", **QUICK)
    assert report.ok
    assert report.summary().startswith("em3d/bingo: OK")


def test_detects_planted_residency_bug(monkeypatch):
    """Revert the end-of-residency fix (close on *any* region-block
    eviction): the differential checker must flag the first truncated
    commit instead of passing silently."""

    def buggy_on_eviction(self, block, was_used):
        region = self.address_map.region_of_block(block)
        offset = self.address_map.offset_of_block(block)
        record = self.accumulation_table.invalidate(region)
        if record is not None:
            self._commit_region(region, record, "residency")
            return
        record = self.filter_table.lookup(region, touch=False)
        if record is not None and record.trigger_offset == offset:
            self.filter_table.pop(region)

    monkeypatch.setattr(BingoPrefetcher, "on_eviction", buggy_on_eviction)
    report = run_check(
        "em3d", "bingo", instructions_per_core=8000, warmup_instructions=1000
    )
    assert not report.ok
    assert report.divergences


def test_detects_planted_prediction_bug(monkeypatch):
    """A prefetcher that silently drops one predicted candidate diverges
    from the reference's prefetch set."""
    original = BingoPrefetcher._predict

    def lossy_predict(self, pc, block, region, offset):
        return original(self, pc, block, region, offset)[:-1]

    monkeypatch.setattr(BingoPrefetcher, "_predict", lossy_predict)
    report = run_check(
        "em3d", "bingo", instructions_per_core=8000, warmup_instructions=1000
    )
    assert not report.ok
    assert report.divergences


def test_detects_planted_counter_bug(monkeypatch):
    """A commit that skips its counter breaks the commits == traced
    region_commit events invariant."""
    original = BingoPrefetcher._commit_region

    def uncounted_commit(self, region, record, cause):
        before = self.stats.get("commits")
        original(self, region, record, cause)
        self.stats.add("commits", before - self.stats.get("commits"))

    monkeypatch.setattr(BingoPrefetcher, "_commit_region", uncounted_commit)
    report = run_check(
        "em3d", "bingo", instructions_per_core=8000, warmup_instructions=1000
    )
    assert not report.ok
    assert report.violations


def test_vectorized_check_passes_on_a_stalling_workload():
    report = run_check("oscillate", "bingo")
    assert report.ok, report.summary()


def test_detects_a_perturbing_observer(monkeypatch):
    """Plant an MSHR probe that expires entries, as ``occupancy`` once
    did: the invariant checker then changes the run it checks, and the
    check must report it rather than vouch for that run."""
    original = MshrFile.occupancy

    def expiring_occupancy(self, now):
        live = self._live
        while live and live[0][0] <= now:
            del self._inflight[live.pop(0)[1]]
        return original(self, now)

    monkeypatch.setattr(MshrFile, "occupancy", expiring_occupancy)
    report = run_check("oscillate", "bingo")
    assert [d.kind for d in report.divergences] == ["observer"]
