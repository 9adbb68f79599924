"""The trace-driven multi-core simulation loop.

The engine advances the core with the smallest local clock (a 4-entry
heap), pulling the next instruction from that core's workload stream and
routing memory operations through the shared hierarchy — so cross-core
interleaving at the LLC and DRAM follows simulated time, not round-robin
instruction count.

Runs have a warm-up window (caches, history tables, and translation fill
up) followed by a measurement window; all reported counters are deltas
over the measurement window, mirroring the paper's SimFlex methodology
(40 K warm-up / 160 K measured per checkpoint — our defaults scale the
same 20/80 split).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.cpu.core import CoreTimingModel
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.replacement import available_replacements
from repro.obs.config import ObservabilityConfig
from repro.obs.sinks import NULL_SINK, TraceSink, build_sink
from repro.obs.timeline import TimelineRecorder
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import check_prefetcher_kwargs, make_prefetcher
from repro.sim.compile.workload import CompiledWorkload
from repro.sim.results import CoreResult, SimResult
from repro.sim.vector import VectorReplay

#: Version of the fast loop (``repro.sim.vector``).  Bump on any change
#: to its walk, barrier handling, or miss path: the executor folds it
#: into result-cache digests so entries an older loop produced are
#: never served.
#: v2: batched miss path + drain mode + per-reason demotion.
#: v3: the drain walk is the only fast loop; the NumPy batch mode and
#: the compiled scalar loop are gone.
VECTOR_VERSION = 3

#: Process-local counts of which engine loop each ``run()`` selected:
#: ``vectorized`` (the fast loop) or ``general``.  ``demoted`` and
#: ``demoted_ineligible_policy`` count the fast-loop runs that have an
#: LLC replacement-policy interface attached.  Such runs take the same
#: miss tail as every other; the names are historical and kept because
#: benchmark tooling reads them.
#: Diagnostics only — deliberately *not* routed into ``SimResult`` or
#: ``raw_stats``, which must stay byte-identical across loops.
_TIER_RUNS = {
    "vectorized": 0,
    "general": 0,
    "demoted": 0,
    "demoted_ineligible_policy": 0,
}


def engine_tier_counters() -> Dict[str, int]:
    """Snapshot of per-loop run counts (this process only)."""
    return dict(_TIER_RUNS)


@dataclass(frozen=True)
class SimulationParams:
    """How long to run: per-core instruction budgets."""

    instructions_per_core: int = 100_000
    warmup_instructions: int = 20_000

    def __post_init__(self) -> None:
        if self.instructions_per_core <= 0:
            raise ValueError("instructions_per_core must be positive")
        if not 0 <= self.warmup_instructions < self.instructions_per_core:
            raise ValueError(
                "warmup_instructions must be in [0, instructions_per_core)"
            )


def check_runnable(
    workload,
    system: SystemConfig,
    prefetcher: str = "none",
    prefetcher_kwargs: Optional[dict] = None,
) -> None:
    """Raise ``ValueError`` unless a run of ``workload`` can start.

    The workload needs one stream per core of ``system``.  A named
    ``prefetcher`` (other than ``none``, whose kwargs the engine
    ignores) must take ``prefetcher_kwargs``; they are bound to its
    constructor's signature, not passed to it, so the check builds
    nothing.
    """
    if workload.num_cores != system.num_cores:
        raise ValueError(
            f"workload {workload.name!r} defines {workload.num_cores} core "
            f"streams but the system has {system.num_cores} cores"
        )
    if prefetcher != "none":
        check_prefetcher_kwargs(prefetcher, prefetcher_kwargs or {})


class SimulationEngine:
    """One workload × one prefetcher configuration × one system."""

    def __init__(
        self,
        workload,
        prefetcher: str = "none",
        system: Optional[SystemConfig] = None,
        params: Optional[SimulationParams] = None,
        prefetcher_kwargs: Optional[dict] = None,
        prefetchers: Optional[Sequence[Prefetcher]] = None,
        train_at: str = "llc",
        obs: Optional[ObservabilityConfig] = None,
        sink: Optional[TraceSink] = None,
        vectorized: bool = True,
        replacement: str = "lru",
    ) -> None:
        """``obs`` selects what the run records (trace file, timeline);
        ``sink`` overrides the trace destination with a ready-made
        :class:`~repro.obs.sinks.TraceSink` (ring buffers, recorders).
        A sink built *here* from ``obs.trace_path`` is owned by the
        engine and closed when :meth:`run` returns.  ``vectorized``
        permits the fast loop when the run qualifies (see
        :meth:`_fast_path_eligible`); ``False`` runs the general loop.
        Results are identical either way.  ``replacement`` selects the
        LLC policy from :mod:`repro.memsys.replacement`."""
        self.workload = workload
        self.vectorized = vectorized
        if replacement not in available_replacements():
            raise ValueError(
                f"unknown replacement policy {replacement!r}; "
                f"available: {available_replacements()}"
            )
        self.replacement = replacement
        self.system = system if system is not None else SystemConfig()
        self.params = params if params is not None else SimulationParams()
        self.prefetcher_name = prefetcher
        self.obs = obs if obs is not None else ObservabilityConfig()
        self._owns_sink = False
        if sink is None:
            sink = build_sink(self.obs)
            self._owns_sink = sink is not None
        self.sink = sink if sink is not None else NULL_SINK

        check_runnable(workload, self.system)

        if prefetchers is not None:
            if len(prefetchers) != self.system.num_cores:
                raise ValueError("one prefetcher instance per core is required")
            self.prefetchers = list(prefetchers)
        elif prefetcher == "none":
            self.prefetchers = []
        else:
            kwargs = prefetcher_kwargs or {}
            self.prefetchers = [
                make_prefetcher(prefetcher, self.system.address_map, **kwargs)
                for _ in range(self.system.num_cores)
            ]

        self.stats = StatGroup("run")
        self.hierarchy = MemoryHierarchy(
            self.system,
            self.prefetchers,
            stats=self.stats.child("memsys"),
            train_at=train_at,
            sink=self.sink,
            replacement=replacement,
        )
        self.cores = [
            CoreTimingModel(self.system.core, stats=self.stats.child(f"core{i}"))
            for i in range(self.system.num_cores)
        ]

        # Interval timeline: sample the LLC/DRAM counters and per-core
        # progress every N retired instructions (across all cores).
        memsys = self.stats.child("memsys")
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(
                self.obs.timeline_interval,
                llc_stats=memsys.child("llc"),
                dram_stats=memsys.child("dram"),
            )
            if self.obs.timeline_interval
            else None
        )
        self._retired_total = 0
        self._next_sample = self.obs.timeline_interval

    # -- phases -----------------------------------------------------------
    def _run_until(self, streams, budget_per_core: int) -> None:
        """Advance every core to ``budget_per_core`` retired instructions.

        Cores are interleaved by their *dispatch* clock, not their retire
        clock: memory requests carry dispatch-time timestamps into the
        shared DRAM model, so processing cores in dispatch order keeps
        those timestamps (nearly) monotonic and the channel-queue
        accounting honest.  Ordering by retire time would let a core that
        just absorbed a long miss stamp its next, independent request far
        in the past relative to other cores' traffic.
        """
        heap = [
            (core.next_issue_time(), core_id)
            for core_id, core in enumerate(self.cores)
            if core.instructions < budget_per_core
        ]
        heapq.heapify(heap)
        recorder = self.timeline  # None when the timeline is disabled
        while heap:
            _, core_id = heapq.heappop(heap)
            core = self.cores[core_id]
            record = next(streams[core_id])
            if record.is_mem:
                issue = core.load_issue_time(record.depends_on_prev_load)
                latency, _ = self.hierarchy.access(
                    core_id, record.pc, record.address, issue, record.is_write
                )
                core.retire_memory(issue, latency, is_load=not record.is_write)
            else:
                core.retire_compute()
            if recorder is not None:
                self._retired_total += 1
                if self._retired_total >= self._next_sample:
                    recorder.sample(self._retired_total, self.cores)
                    self._next_sample += recorder.interval
            if core.instructions < budget_per_core:
                heapq.heappush(heap, (core.next_issue_time(), core_id))

    def _fast_path_eligible(self) -> bool:
        """True when the fast loop (:mod:`repro.sim.vector`) may replace
        :meth:`_run_until`.

        The fast loop replays packed compiled traces and skips timeline
        bookkeeping, so it only engages when the timeline recorder is
        off.  A trace sink does not matter: every event is emitted on the
        L1-miss tail (``MemoryHierarchy.l1_miss``, the LLC and the
        prefetchers behind it), which both loops call in the same global
        order, so a traced run takes the fast loop and records the same
        stream.  It walks L1 hits without calling the hierarchy, so
        prefetchers (if any) must observe the **LLC**; ``train_at="l1"``
        stays eligible only for the no-prefetcher baseline, where the L1
        eviction hook is inert.  The LLC replacement policy does not
        matter either: both loops service every L1 miss through
        ``l1_miss``.  Anything else — ``vectorized=False``, or a trace
        compiled shorter than the run — runs the general loop,
        byte-for-byte.
        """
        return (
            self.vectorized
            and isinstance(self.workload, CompiledWorkload)
            and self.timeline is None
            and self.workload.records_per_core
            >= self.params.instructions_per_core
            and (not self.prefetchers or self.hierarchy.train_at == "llc")
        )

    # -- the full run -----------------------------------------------------------
    def run(self) -> SimResult:
        # A sink built here from ``obs.trace_path`` is entered as a
        # context manager: however the run ends — normally, by exception,
        # or by KeyboardInterrupt — the trace file is flushed and closed,
        # never left truncated at the OS buffer boundary.
        if self._owns_sink:
            with self.sink:
                return self._run()
        return self._run()

    def _run(self) -> SimResult:
        params = self.params
        if self._fast_path_eligible():
            replay = VectorReplay(self)
            advance = replay.advance
            _TIER_RUNS["vectorized"] += 1
            if self.replacement != "lru":  # an LLC policy interface
                _TIER_RUNS["demoted"] += 1
                _TIER_RUNS["demoted_ineligible_policy"] += 1
        else:
            _TIER_RUNS["general"] += 1
            streams = {
                core_id: self.workload.core_stream(core_id)
                for core_id in range(self.system.num_cores)
            }

            def advance(budget: int) -> None:
                self._run_until(streams, budget)

        if params.warmup_instructions:
            advance(params.warmup_instructions)
        snapshot = self.stats.snapshot()
        core_marks = [(core.instructions, core.time) for core in self.cores]

        advance(params.instructions_per_core)
        self.hierarchy.finalize()
        final = self.stats.snapshot()

        recorder = self.timeline
        if recorder is not None:
            # Close the last (possibly partial) interval so the
            # timeline's deltas sum to the whole-run totals.
            if self._retired_total > recorder.last_instructions():
                recorder.sample(self._retired_total, self.cores)
            timeline = list(recorder.samples)
        else:
            timeline = []

        result = self._build_result(snapshot, final, core_marks)
        result.timeline = timeline
        return result

    # -- result assembly -----------------------------------------------------------
    def _delta(self, snapshot: Dict[str, float], final: Dict[str, float],
               key: str) -> int:
        return int(final.get(key, 0) - snapshot.get(key, 0))

    def _build_result(
        self,
        snapshot: Dict[str, float],
        final: Dict[str, float],
        core_marks: List[tuple],
    ) -> SimResult:
        cores = []
        for core, (warm_instr, warm_time) in zip(self.cores, core_marks):
            cores.append(
                CoreResult(
                    instructions=core.instructions - warm_instr,
                    cycles=core.time - warm_time,
                )
            )
        llc = "run.memsys.llc."
        dram = "run.memsys.dram."
        # Every core carries an identical copy of the prefetcher metadata,
        # and Fig. 9 charges the *per-core* budget, so read the first
        # instance; the "none" baseline has no prefetchers and costs 0.
        storage = self.prefetchers[0].storage_bits if self.prefetchers else 0
        pf_prefix = "run.memsys.prefetcher."
        pf_counters = {
            key[key.rindex(".") + 1 :]: final[key] - snapshot.get(key, 0)
            for key in final
            if key.startswith(pf_prefix)
        }
        return SimResult(
            workload=self.workload.name,
            prefetcher=self.prefetcher_name,
            cores=cores,
            demand_accesses=self._delta(snapshot, final, llc + "demand_accesses"),
            demand_hits=self._delta(snapshot, final, llc + "demand_hits"),
            demand_misses=self._delta(snapshot, final, llc + "demand_misses"),
            covered=self._delta(snapshot, final, llc + "covered"),
            late_covered=self._delta(snapshot, final, llc + "late_covered"),
            prefetches_issued=self._delta(
                snapshot, final, llc + "prefetches_issued"
            ),
            redundant_prefetches=self._delta(
                snapshot, final, llc + "redundant_prefetches"
            ),
            overpredictions=self._delta(snapshot, final, llc + "overpredictions"),
            prefetch_unused_at_end=int(
                final.get(llc + "prefetch_unused_at_end", 0)
            ),
            dram_reads=self._delta(snapshot, final, dram + "reads"),
            dram_row_hits=self._delta(snapshot, final, dram + "row_hits"),
            prefetcher_storage_bits=storage,
            prefetcher_counters=pf_counters,
            raw_stats=self.stats.as_dict(),
        )
