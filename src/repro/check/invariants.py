"""Runtime invariant checking as a trace sink.

:class:`InvariantChecker` rides the observability event stream and
asserts conservation laws that must hold at any access boundary,
regardless of workload or prefetcher:

* ``demand_hits + demand_misses + covered == demand_accesses`` and
  ``late_covered <= covered`` (LLC counter self-consistency);
* the event stream re-derives the live LLC counters exactly (the
  observability layer's own correctness contract);
* no L1 MSHR file ever has more started-and-unfinished misses than it
  has entries;
* a region is never tracked by a prefetcher's filter table and its
  accumulation table at the same time;
* every footprint commit a prefetcher counts is visible as a
  :class:`~repro.obs.events.RegionCommit` event — commits equal closed
  residencies plus capacity recycles, nothing silent.

Cheap counter checks run on every demand event; structural sweeps
(MSHR occupancy, table disjointness) run every ``interval`` events.
Violations are collected (``strict=False``) or raised at
:meth:`finalize` (``strict=True``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.events import TraceEvent
from repro.obs.sinks import TraceSink


class InvariantViolation(AssertionError):
    """An invariant failed; carries every violation found so far."""

    def __init__(self, violations: List[str]) -> None:
        super().__init__(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations)
        )
        self.violations = violations

    def __reduce__(self):
        # Rebuild from the list, not the formatted message, so the error
        # crosses a worker's pipe with its type, text and violations.
        return (InvariantViolation, (self.violations,))


class InvariantChecker(TraceSink):
    """Checks conservation laws against a live hierarchy while tracing."""

    enabled = True

    def __init__(self, interval: int = 4096, strict: bool = False) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.strict = strict
        self.violations: List[str] = []
        self.checks_run = 0
        self._hierarchy = None
        self._events = 0
        self._since_sweep = 0
        # event-derived LLC totals (mirrors replay_llc_counters, kept
        # incrementally so the equality check is O(1) per sweep)
        self._ev_hits = 0
        self._ev_misses = 0
        self._ev_covered = 0
        self._ev_late = 0
        self._ev_issued = 0
        self._ev_evictions = 0
        self._ev_commits = 0

    # -- wiring ------------------------------------------------------------
    def attach(self, hierarchy) -> None:
        """Bind to the :class:`~repro.memsys.hierarchy.MemoryHierarchy`
        whose live counters the event stream will be diffed against.
        Must happen before the run emits its first event; ``None``
        unbinds the checker, which then only tallies."""
        self._hierarchy = hierarchy

    # -- the sink ------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        self._events += 1
        kind = event.kind
        demand = False
        if kind == "demand_hit":
            demand = True
            if event.covered:
                self._ev_covered += 1
                if event.late:
                    self._ev_late += 1
            else:
                self._ev_hits += 1
        elif kind == "demand_miss":
            demand = True
            self._ev_misses += 1
        elif kind == "prefetch_issued":
            self._ev_issued += 1
        elif kind == "eviction":
            self._ev_evictions += 1
        elif kind == "region_commit":
            self._ev_commits += 1
        if demand and self._hierarchy is not None:
            # Demand events are emitted with their access's counters
            # already applied and no commit/eviction half-processed, so
            # they are the safe boundary for exact comparisons.
            self._check_counters()
            self._since_sweep += 1
            if self._since_sweep >= self.interval:
                self._since_sweep = 0
                self._check_structures()

    # -- the invariants -------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations.append(f"[event {self._events}] {message}")

    def _check_counters(self) -> None:
        self.checks_run += 1
        llc = self._hierarchy.stats.child("llc")
        accesses = llc.get("demand_accesses")
        hits = llc.get("demand_hits")
        misses = llc.get("demand_misses")
        covered = llc.get("covered")
        late = llc.get("late_covered")
        if hits + misses + covered != accesses:
            self._fail(
                f"conservation: hits({hits}) + misses({misses}) + "
                f"covered({covered}) != accesses({accesses})"
            )
        if late > covered:
            self._fail(f"late_covered({late}) > covered({covered})")
        # The event stream must re-derive the live counters: the checker
        # has seen every event since engine construction, so its running
        # totals and the hierarchy's cells count the same things.
        pairs = (
            ("demand_hits", hits, self._ev_hits),
            ("demand_misses", misses, self._ev_misses),
            ("covered", covered, self._ev_covered),
            ("late_covered", late, self._ev_late),
            ("prefetches_issued", llc.get("prefetches_issued"), self._ev_issued),
        )
        for name, live, derived in pairs:
            if live != derived:
                self._fail(
                    f"event stream derives {name}={derived} but live "
                    f"counter says {live}"
                )

    def _check_structures(self) -> None:
        h = self._hierarchy
        now = h._now
        for core_id, mshr in enumerate(h.l1_mshrs):
            occupancy = mshr.occupancy(now)
            if occupancy > mshr.entries:
                self._fail(
                    f"l1d{core_id} MSHR occupancy {occupancy} exceeds "
                    f"{mshr.entries} entries at t={now}"
                )
        seen = set()
        commit_stats = None
        for pf in h.prefetchers:
            if id(pf) in seen:
                continue
            seen.add(id(pf))
            filter_table = getattr(pf, "filter_table", None)
            accumulation = getattr(pf, "accumulation_table", None)
            if filter_table is None or accumulation is None:
                continue
            filtered = {region for region, _ in filter_table.items()}
            accumulating = {region for region, _ in accumulation.items()}
            overlap = filtered & accumulating
            if overlap:
                self._fail(
                    f"prefetcher {pf.name!r} tracks regions "
                    f"{sorted(overlap)} in both filter and accumulation"
                )
            commit_stats = pf.stats  # shared across cores of one name
        if commit_stats is not None:
            live_commits = commit_stats.get("commits")
            if live_commits != self._ev_commits:
                self._fail(
                    f"prefetcher counts {live_commits} commits but the "
                    f"trace shows {self._ev_commits} region_commit events"
                )

    # -- end of run ------------------------------------------------------------
    def finalize(self) -> Optional[InvariantViolation]:
        """Run every check once more; raise in strict mode on violations."""
        if self._hierarchy is not None:
            self._check_counters()
            self._check_structures()
            llc = self._hierarchy.stats.child("llc")
            evictions = llc.get("evictions") + llc.get("invalidations")
            if evictions != self._ev_evictions:
                self._fail(
                    f"event stream derives {self._ev_evictions} LLC "
                    f"evictions but live counters say {evictions}"
                )
        if self.violations:
            error = InvariantViolation(self.violations)
            if self.strict:
                raise error
            return error
        return None
