"""The differential runner: live simulator vs untimed references.

:class:`DifferentialChecker` is a :class:`~repro.obs.sinks.TraceSink`
that replays a run's event stream — as it is emitted — through the
reference models of :mod:`repro.check.reference` and
:mod:`repro.check.refbingo`, diffing every observable decision:

* hit/miss/covered classification of each LLC demand access;
* the flags of every eviction;
* each Bingo vote decision (matched event, match count, prediction);
* the exact issued prefetch set of each trigger, including the
  redundancy filtering (candidates already resident are skipped);
* each end-of-residency footprint commit.

Event order carries the protocol: a demand miss's fill-victim eviction
arrives *between* the miss and the access's training events, so the
reference defers training until the first training event (or the end of
the access) — exactly mirroring the live call order; a prefetch fill's
victim eviction precedes its ``prefetch_issued``, so candidate-skip
decisions are replayed against the pre-eviction reference state.

Capacity events (``region_drop``, capacity ``region_commit``,
``history_evict``) are where the finite tables legitimately leave the
unbounded reference behind; the checker applies them as sync steps and
counts them under ``explained`` rather than as divergences.

:func:`run_check` wires a checker plus an
:class:`~repro.check.invariants.InvariantChecker` into one engine run
(wrapping ``hierarchy.access`` to also diff the L1) and returns a
:class:`CheckReport`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.check.invariants import InvariantChecker
from repro.check.reference import ReferenceL1, ReferenceLlc
from repro.check.refbingo import ReferenceBingo, RefRegion
from repro.common.bitvec import Footprint
from repro.obs.events import TraceEvent
from repro.obs.sinks import TraceSink

#: how many trailing events a divergence report carries
CONTEXT_EVENTS = 32


@dataclass
class Divergence:
    """One disagreement between the live run and the references."""

    kind: str
    detail: str
    event_index: int
    context: List[dict] = field(default_factory=list)

    def __str__(self) -> str:
        return f"[event {self.event_index}] {self.kind}: {self.detail}"


class DifferentialChecker(TraceSink):
    """Diffs the live event stream against the reference models.

    The checker stops at the first divergence (state beyond that point
    is untrustworthy and every later event would diverge too); the
    report carries the last :data:`CONTEXT_EVENTS` events for debugging.

    ``prefetcher`` selects how much is modelled: ``"bingo"`` gets the
    full reference-Bingo diff (votes, prefetch sets, commits); any other
    name still gets the cache-level diff (classification, eviction
    flags, prefetch residency) with the prefetcher treated as a black
    box.
    """

    enabled = True

    def __init__(
        self,
        prefetcher: str = "bingo",
        num_cores: int = 4,
        blocks_per_region: int = 32,
        vote_threshold: float = 0.20,
    ) -> None:
        self.prefetcher = prefetcher
        self.num_cores = num_cores
        self.blocks_per_region = blocks_per_region
        self.llc = ReferenceLlc()
        self.bingos: Optional[List[ReferenceBingo]] = (
            [
                ReferenceBingo(blocks_per_region, vote_threshold)
                for _ in range(num_cores)
            ]
            if prefetcher == "bingo"
            else None
        )
        self.divergences: List[Divergence] = []
        self.explained: Counter = Counter()
        self.demand_events = 0
        self._events = 0
        self._ring: Deque[dict] = deque(maxlen=CONTEXT_EVENTS)
        # per-access protocol state
        self._pending_train: Optional[Tuple[int, int, int]] = None
        self._current_core = 0
        self._ref_decision = None
        self._ref_trigger: Optional[Tuple[int, int]] = None  # (region, offset)
        self._candidates: Deque[int] = deque()
        self._expected_commits: Deque[Tuple[int, int, RefRegion]] = deque()
        self._last_commit_core: Optional[int] = None
        self._last_issued: Optional[int] = None

    # -- reporting ----------------------------------------------------------
    @property
    def failed(self) -> bool:
        return bool(self.divergences)

    def _diverge(self, kind: str, detail: str) -> None:
        self.divergences.append(
            Divergence(
                kind=kind,
                detail=detail,
                event_index=self._events,
                context=list(self._ring),
            )
        )
        # First divergence wins: later state is noise, stop listening.
        self.enabled = False

    # -- the sink -------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if self.failed:
            return
        self._events += 1
        self._ring.append(event.to_dict())
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    # -- demand classification ---------------------------------------------
    def _on_demand_hit(self, event) -> None:
        self._finish_access()
        self.demand_events += 1
        self._current_core = event.core_id
        state = self.llc.lookup(event.block)
        if state is None:
            self._diverge(
                "classification",
                f"live LLC hit on block {event.block:#x} which the "
                f"reference holds as non-resident",
            )
            return
        ref_covered = state.prefetched and not state.used
        if ref_covered != event.covered:
            self._diverge(
                "classification",
                f"block {event.block:#x}: live covered={event.covered} "
                f"but reference says {ref_covered} "
                f"(prefetched={state.prefetched}, used={state.used})",
            )
            return
        state.used = True
        self._pending_train = (event.core_id, event.pc, event.block)

    def _on_demand_miss(self, event) -> None:
        self._finish_access()
        self.demand_events += 1
        self._current_core = event.core_id
        if self.llc.resident(event.block):
            self._diverge(
                "classification",
                f"live LLC miss on block {event.block:#x} which the "
                f"reference holds as resident",
            )
            return
        self.llc.fill_demand(event.block)
        self._pending_train = (event.core_id, event.pc, event.block)

    # -- evictions ------------------------------------------------------------
    def _on_eviction(self, event) -> None:
        if event.cache != "llc":
            return
        # Candidates the live issue loop skipped as redundant were
        # checked against the pre-eviction cache state; replay those
        # skips before applying the eviction.
        self._drain_resident_candidates()
        state = self.llc.evict(event.block)
        if state is None:
            self._diverge(
                "eviction",
                f"live evicted block {event.block:#x} the reference "
                f"holds as non-resident",
            )
            return
        if (state.prefetched, state.used) != (event.prefetched, event.used):
            self._diverge(
                "eviction",
                f"block {event.block:#x} evicted with prefetched="
                f"{event.prefetched}/used={event.used} but reference "
                f"tracked prefetched={state.prefetched}/used={state.used}",
            )
            return
        if self.bingos is not None:
            # The live hierarchy broadcasts in core order; each core's
            # prefetcher that recorded this block must now commit.
            for core_id, ref in enumerate(self.bingos):
                closed = ref.on_llc_eviction(event.block)
                if closed is not None:
                    region, record = closed
                    self._expected_commits.append((core_id, region, record))

    # -- training events -------------------------------------------------------
    def _on_vote_decision(self, event) -> None:
        if self.bingos is None:
            return
        self._apply_pending_train()
        decision = self._ref_decision
        if decision is None:
            self._diverge(
                "vote",
                f"live emitted a vote decision at pc={event.pc:#x} "
                f"block={event.block:#x} but the reference saw no "
                f"trigger access",
            )
            return
        self._ref_decision = None
        predicted = (
            len(decision.candidates(0, event.offset))
            if decision.footprint is not None
            else 0
        )
        if (
            decision.matched != event.matched
            or decision.num_matches != event.num_matches
            or predicted != event.predicted
        ):
            self._diverge(
                "vote",
                f"trigger pc={event.pc:#x} block={event.block:#x}: live "
                f"matched={event.matched}/n={event.num_matches}/"
                f"predicted={event.predicted}, reference "
                f"matched={decision.matched}/n={decision.num_matches}/"
                f"predicted={predicted}",
            )
            return
        if decision.footprint is not None:
            base = event.region * self.blocks_per_region
            self._candidates = deque(
                base + offset
                for offset in decision.footprint.offsets()
                if offset != event.offset
            )

    def _on_region_commit(self, event) -> None:
        if self.bingos is None:
            self.explained["region_commit_unmodelled"] += 1
            return
        if event.cause == "residency":
            if not self._expected_commits:
                self._diverge(
                    "commit",
                    f"live committed region {event.region:#x} at end of "
                    f"residency but the reference expected no commit",
                )
                return
            core_id, region, record = self._expected_commits.popleft()
            self._last_commit_core = core_id
            if event.region != region or not self._commit_matches(
                event, record
            ):
                self._diverge(
                    "commit",
                    f"residency commit mismatch: live region="
                    f"{event.region:#x} pc={event.pc:#x} "
                    f"footprint={event.footprint:#x}, reference region="
                    f"{region:#x} pc={record.trigger_pc:#x} "
                    f"footprint={record.footprint.bits:#x}",
                )
                return
            self.bingos[core_id].insert_history(
                record.trigger_pc,
                record.trigger_block,
                record.trigger_offset,
                record.footprint,
            )
            self.explained["residency_commits_checked"] += 1
        else:
            # Capacity recycle: happens inside the live on_access, so
            # the reference must process the same access first.
            self._apply_pending_train()
            core_id = self._current_core
            self._last_commit_core = core_id
            record = self.bingos[core_id].sync_capacity_commit(event.region)
            if record is None or not self._commit_matches(event, record):
                self._diverge(
                    "commit",
                    f"capacity commit of region {event.region:#x} does "
                    f"not match the reference accumulation state",
                )
                return
            self.bingos[core_id].insert_history(
                record.trigger_pc,
                record.trigger_block,
                record.trigger_offset,
                record.footprint,
            )
            self.explained["capacity_commits_synced"] += 1

    @staticmethod
    def _commit_matches(event, record: RefRegion) -> bool:
        return (
            event.pc == record.trigger_pc
            and event.offset == record.trigger_offset
            and event.trigger_block == record.trigger_block
            and event.footprint == record.footprint.bits
        )

    def _on_region_drop(self, event) -> None:
        if self.bingos is None:
            return
        self._apply_pending_train()
        if not self.bingos[self._current_core].sync_filter_drop(event.region):
            self._diverge(
                "sync",
                f"live filter table dropped region {event.region:#x} the "
                f"reference does not track",
            )
            return
        self.explained["filter_drops_synced"] += 1

    def _on_history_evict(self, event) -> None:
        if self.bingos is None:
            return
        core_id = (
            self._last_commit_core
            if self._last_commit_core is not None
            else self._current_core
        )
        if not self.bingos[core_id].sync_history_evict(
            event.key, event.pc, event.offset
        ):
            self._diverge(
                "sync",
                f"live history table evicted key {event.key:#x} the "
                f"reference does not hold",
            )
            return
        self.explained["history_evicts_synced"] += 1

    # -- the prefetch stream ----------------------------------------------------
    def _on_prefetch_issued(self, event) -> None:
        self._drain_resident_candidates()
        if self.bingos is not None:
            if not self._candidates or self._candidates[0] != event.block:
                expected = (
                    f"{self._candidates[0]:#x}" if self._candidates else "none"
                )
                self._diverge(
                    "prefetch-set",
                    f"live issued prefetch for block {event.block:#x} but "
                    f"the reference expected {expected}",
                )
                return
            self._candidates.popleft()
        if self.llc.resident(event.block):
            self._diverge(
                "prefetch-set",
                f"live issued a prefetch for block {event.block:#x} the "
                f"reference holds as already resident",
            )
            return
        self.llc.fill_prefetch(event.block)
        self._last_issued = event.block

    def _on_prefetch_fill(self, event) -> None:
        if event.block != self._last_issued:
            self._diverge(
                "prefetch-set",
                f"prefetch fill for block {event.block:#x} does not pair "
                f"with the last issue "
                f"({self._last_issued and hex(self._last_issued)})",
            )

    # -- per-access protocol ----------------------------------------------------
    def _apply_pending_train(self) -> None:
        if self._pending_train is None:
            return
        core_id, pc, block = self._pending_train
        self._pending_train = None
        if self.bingos is None:
            return
        decision = self.bingos[core_id].on_access(pc, block)
        if decision is not None:
            self._ref_decision = decision

    def _drain_resident_candidates(self) -> None:
        candidates = self._candidates
        llc = self.llc
        while candidates and llc.resident(candidates[0]):
            candidates.popleft()  # live loop skipped these as redundant

    def _finish_access(self) -> None:
        """Close the protocol for the previous access (idempotent)."""
        if self.failed:
            return
        self._apply_pending_train()
        if self._ref_decision is not None:
            self._diverge(
                "vote",
                "reference saw a trigger access but the live run emitted "
                "no vote decision for it",
            )
            return
        self._drain_resident_candidates()
        if self._candidates:
            missing = ", ".join(f"{b:#x}" for b in self._candidates)
            self._diverge(
                "prefetch-set",
                f"reference predicted prefetches never issued: {missing}",
            )
            return
        if self._expected_commits:
            core_id, region, _ = self._expected_commits[0]
            self._diverge(
                "commit",
                f"reference expected a residency commit of region "
                f"{region:#x} (core {core_id}) that never happened",
            )

    # -- wrapper integration ----------------------------------------------------
    def access_complete(self) -> None:
        """Called by the access wrapper after each demand access returns."""
        self._finish_access()

    def finish(self) -> None:
        """Close the final access's protocol at end of run."""
        self._finish_access()

    _HANDLERS = {
        "demand_hit": _on_demand_hit,
        "demand_miss": _on_demand_miss,
        "eviction": _on_eviction,
        "vote_decision": _on_vote_decision,
        "region_commit": _on_region_commit,
        "region_drop": _on_region_drop,
        "history_evict": _on_history_evict,
        "prefetch_issued": _on_prefetch_issued,
        "prefetch_fill": _on_prefetch_fill,
    }


# ---------------------------------------------------------------------------
# The differential runner
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one differential run."""

    workload: str
    prefetcher: str
    accesses: int
    events: int
    l1_divergences: int
    divergences: List[Divergence]
    violations: List[str]
    explained: Dict[str, int]

    @property
    def ok(self) -> bool:
        return (
            not self.divergences
            and not self.violations
            and self.l1_divergences == 0
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        parts = [
            f"{self.workload}/{self.prefetcher}: {status} "
            f"({self.accesses} accesses, {self.events} events checked)"
        ]
        for divergence in self.divergences:
            parts.append(f"  divergence {divergence}")
        for violation in self.violations:
            parts.append(f"  invariant {violation}")
        if self.l1_divergences:
            parts.append(f"  {self.l1_divergences} L1 classification diffs")
        if self.explained:
            explained = ", ".join(
                f"{name}={count}" for name, count in sorted(self.explained.items())
            )
            parts.append(f"  explained: {explained}")
        return "\n".join(parts)


def run_check(
    workload: str,
    prefetcher: str = "bingo",
    num_cores: int = 4,
    instructions_per_core: int = 8000,
    warmup_instructions: int = 1000,
    seed: int = 11,
    scale: float = 0.02,
    system=None,
    compile: bool = False,
    vectorized: bool = False,
    replacement: str = "lru",
) -> CheckReport:
    """Run one small configuration with the full harness attached.

    The engine's sink is a tee of the differential checker and the
    invariant checker; ``hierarchy.access`` is wrapped so every demand
    access also diffs the L1 hit/miss classification against
    :class:`~repro.check.reference.ReferenceL1` (the L1 emits no events,
    so the wrapper is the only place that decision is observable).

    ``compile=True`` replays the workload from a packed compiled trace
    (:mod:`repro.sim.compile`) instead of the live generators — the full
    differential harness then vouches for the compiled stream end to
    end (``bingo-sim check --compiled``).

    ``vectorized=True`` (implies ``compile``) additionally runs the same
    configuration unobserved, on the general loop and on the engine's
    fast loop, and diffs ``SimResult`` objects field for field: the
    harnessed run against the unobserved general loop (an ``observer``
    divergence: the harness changed the run it vouched for) and the fast
    loop against it (a ``vector-replay`` divergence).  The fast loop
    cannot host the event-level harness directly (it replays L1 hits
    without emitting events), so the result-level diffs chain the
    harness's verdict to it: byte-identical ``SimResult`` objects.

    ``replacement`` selects the LLC policy for every engine built here.
    The reference LLC is replacement-agnostic — it mirrors residency
    from the live event stream rather than predicting victims — so the
    full harness holds for any registered policy, not just LRU
    (``bingo-sim check --replacement arc``).  ``"opt"`` implies
    ``compile`` (the Belady oracle pre-scans the packed arenas).
    """
    from repro.common.config import small_system
    from repro.obs.sinks import TeeSink
    from repro.sim.engine import SimulationEngine, SimulationParams
    from repro.workloads.registry import make_workload

    if vectorized or replacement == "opt":
        compile = True
    if system is None:
        system = small_system(num_cores=num_cores)
    workload_obj = make_workload(workload, seed=seed, scale=scale)
    if compile:
        from repro.sim.compile import compile_workload

        workload_obj = compile_workload(
            workload_obj,
            records_per_core=instructions_per_core,
            scale=scale,
        )
    checker = DifferentialChecker(
        prefetcher=prefetcher,
        num_cores=system.num_cores,
        blocks_per_region=system.address_map.blocks_per_region,
    )
    invariants = InvariantChecker(strict=False)
    engine = SimulationEngine(
        workload=workload_obj,
        prefetcher=prefetcher,
        system=system,
        params=SimulationParams(
            instructions_per_core=instructions_per_core,
            warmup_instructions=warmup_instructions,
        ),
        sink=TeeSink([checker, invariants]),
        replacement=replacement,
    )
    hierarchy = engine.hierarchy
    invariants.attach(hierarchy)

    ref_l1s = [
        ReferenceL1(system.l1d.sets, system.l1d.ways)
        for _ in range(system.num_cores)
    ]
    real_access = hierarchy.access
    block_bits = system.address_map.block_bits
    translator = hierarchy.translator
    state = {"accesses": 0, "l1_divergences": 0}

    def checked_access(core_id, pc, vaddr, now, is_write=False):
        state["accesses"] += 1
        # The translator is memoised and deterministic, so resolving the
        # block early performs exactly the allocation the access would.
        block = translator.translate(core_id, vaddr) >> block_bits
        ref_hit = ref_l1s[core_id].lookup(block)
        demand_before = checker.demand_events
        result = real_access(core_id, pc, vaddr, now, is_write)
        if result.l1_hit != ref_hit:
            state["l1_divergences"] += 1
        if not result.l1_hit:
            # An access merged into an in-flight L1 miss does not fill
            # the L1; it is recognisable by producing no LLC demand
            # event while still reporting llc_hit.
            merged = result.llc_hit and checker.demand_events == demand_before
            if not merged:
                ref_l1s[core_id].fill(block)
        checker.access_complete()
        return result

    hierarchy.access = checked_access
    try:
        harnessed = engine.run()
    finally:
        hierarchy.access = real_access
    checker.finish()
    error = invariants.finalize()
    result_divergences = []
    if vectorized:
        params = SimulationParams(
            instructions_per_core=instructions_per_core,
            warmup_instructions=warmup_instructions,
        )
        scalar = SimulationEngine(
            workload=workload_obj, prefetcher=prefetcher, system=system,
            params=params, vectorized=False, replacement=replacement,
        ).run()
        vector = SimulationEngine(
            workload=workload_obj, prefetcher=prefetcher, system=system,
            params=params, vectorized=True, replacement=replacement,
        ).run()
        sd = scalar.to_dict()
        for kind, other, what in (
            ("observer", harnessed, "the harnessed run's"),
            ("vector-replay", vector, "the fast loop's"),
        ):
            od = other.to_dict()
            if od != sd:
                keys = sorted(
                    key for key in set(sd) | set(od) if sd.get(key) != od.get(key)
                )
                result_divergences.append(
                    Divergence(
                        kind=kind,
                        detail=(
                            f"{what} SimResult differs from the unobserved "
                            f"general loop's in fields: {', '.join(keys)}"
                        ),
                        event_index=-1,
                    )
                )
    return CheckReport(
        workload=workload,
        prefetcher=prefetcher,
        accesses=state["accesses"],
        events=checker._events,
        l1_divergences=state["l1_divergences"],
        divergences=checker.divergences + result_divergences,
        violations=list(error.violations) if error else [],
        explained=dict(checker.explained),
    )
