"""The full memory hierarchy: per-core L1Ds, a shared LLC, DRAM.

This module wires the substrate together exactly as Section V describes:

* each core has a private L1D (64 KB, 8-way, 8 MSHRs);
* all cores share one LLC (8 MB, 16-way, 15-cycle hit);
* prefetchers are *per core*, observe **LLC demand accesses** (hits and
  misses), and prefetch **into the LLC** — no prefetch buffers, no
  metadata sharing between cores;
* every LLC eviction is broadcast to the prefetchers so per-page-history
  schemes can close region residencies.

The model is latency-based rather than cycle-by-cycle: each access returns
its end-to-end latency and an outcome code (``L1_HIT``, ``MERGED``,
``LLC_MISS``, ``LLC_HIT``, ``COVERED`` or ``LATE``), in-flight prefetches
are materialised in the LLC with a ``ready_time``, and DRAM channel
occupancy provides bandwidth back-pressure.  A prefetcher trains on an
``AccessInfo(pc, block)`` and answers with block numbers.  DESIGN.md §6
documents the fidelity trade-offs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.memsys.cache import BlockState, Cache
from repro.memsys.dram import DramModel
from repro.memsys.mshr import MshrFile
from repro.memsys.replacement import make_replacement
from repro.memsys.translation import RandomFirstTouchTranslator
from repro.obs.events import DemandHit, DemandMiss, PrefetchFill, PrefetchIssued
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.prefetchers.base import AccessInfo, Prefetcher


#: Outcomes of :meth:`MemoryHierarchy.access` and
#: :meth:`MemoryHierarchy.l1_miss`.  ``MERGED`` is 0, so a miss outcome's
#: truth value says whether the caller must fill its L1; ``COVERED`` and
#: ``LATE`` are LLC hits on a not-yet-used prefetched block (``LATE``:
#: its fill had not completed).  Only ``access`` answers ``L1_HIT``.
MERGED, LLC_MISS, LLC_HIT, COVERED, LATE, L1_HIT = range(6)


class MemoryHierarchy:
    """Private L1Ds over a shared, prefetched LLC over banked DRAM."""

    def __init__(
        self,
        config: SystemConfig,
        prefetchers: Optional[Sequence[Prefetcher]] = None,
        stats: Optional[StatGroup] = None,
        train_at: str = "llc",
        sink: TraceSink = NULL_SINK,
        replacement: str = "lru",
        replacement_oracle=None,
    ) -> None:
        """``train_at`` selects where prefetchers observe traffic.

        ``"llc"`` (the paper's choice, Section V) trains on LLC demand
        accesses with LLC evictions ending region residencies; ``"l1"``
        trains on *every* L1D access with L1 evictions ending residencies
        — SMS's original placement.  Prefetches always fill the LLC.  The
        paper argues pages linger far longer at the multi-megabyte LLC,
        giving footprints time to complete; the placement ablation bench
        quantifies exactly that.

        ``replacement`` names an LLC policy from
        :mod:`repro.memsys.replacement` ("lru", the default, keeps the
        cache model's native OrderedDict fast path and is byte-identical
        to the pre-zoo engine).  L1 replacement stays native LRU: the
        engine's fast loop mirrors the L1s as stamp lists, so L1
        pluggability would fork the loops (docs/replacement.md).
        ``replacement_oracle`` supplies next-use knowledge for "opt";
        the engine builds it from the compiled workload and it is bound
        to the live translator here.
        """
        if train_at not in ("llc", "l1"):
            raise ValueError(f"train_at must be 'llc' or 'l1', got {train_at!r}")
        self.config = config
        self.train_at = train_at
        self.stats = stats if stats is not None else StatGroup("memsys")
        # One sink for the whole hierarchy; LLC traffic, prefetch issue,
        # and prefetcher decisions all land in one ordered stream.
        self.sink = sink if sink is not None else NULL_SINK
        amap = config.address_map
        self.address_map = amap

        if prefetchers is None:
            prefetchers = []
        if len(prefetchers) not in (0, config.num_cores):
            raise ValueError(
                f"need 0 or {config.num_cores} prefetchers, got {len(prefetchers)}"
            )
        self.prefetchers: List[Prefetcher] = list(prefetchers)
        for pf in self.prefetchers:
            pf.stats = self.stats.child("prefetcher").child(pf.name)
            pf.sink = self.sink
        # Each distinct instance once, in core order: with shared
        # metadata (the Section V ablation) all cores route to one
        # object, which must see each LLC eviction once, not per core.
        self._eviction_listeners: List[Prefetcher] = list(
            {id(pf): pf for pf in self.prefetchers}.values()
        )

        self.translator = RandomFirstTouchTranslator(
            amap, config.physical_pages, config.translation_seed
        )
        self.replacement = replacement
        # "lru" stays on the cache model's built-in OrderedDict order —
        # zero per-access overhead and byte-identical to the pre-zoo
        # engine; anything else goes through the policy interface.
        if replacement == "lru":
            llc_policy = None
        else:
            llc_policy = make_replacement(
                replacement,
                config.llc.sets,
                config.llc.ways,
                oracle=replacement_oracle,
            )
        if replacement_oracle is not None:
            replacement_oracle.attach(self.translator)
        # prebound observe hook: one attribute test on the demand path
        self._oracle_observe = (
            replacement_oracle.observe if replacement_oracle is not None else None
        )
        self.l1ds = [
            Cache(config.l1d, name=f"l1d{i}", stats=self.stats.child(f"l1d{i}"))
            for i in range(config.num_cores)
        ]
        self.l1_mshrs = [
            MshrFile(config.l1d.mshr_entries, self.stats.child(f"l1d{i}").child("mshr"))
            for i in range(config.num_cores)
        ]
        self.llc = Cache(
            config.llc,
            name="llc",
            stats=self.stats.child("llc"),
            sink=self.sink,
            policy=llc_policy,
        )
        self.dram = DramModel(
            config.dram, config.core, amap.block_size, self.stats.child("dram")
        )
        self._llc_stats = self.stats.child("llc")
        self._block_bits = amap.block_bits
        self._l1_hit_latency = config.l1d.hit_latency
        self._llc_hit_latency = config.llc.hit_latency
        self._now = 0.0  # advanced by accesses; used to time writebacks

        # Fast-path counter cells, hoisted so the per-access path touches
        # no string keys.  One triple per core for the L1s, one set for
        # the shared LLC.
        llc_stats = self._llc_stats
        self._c_demand_accesses = llc_stats.counter("demand_accesses")
        self._c_demand_writes = llc_stats.counter("demand_writes")
        self._c_demand_hits = llc_stats.counter("demand_hits")
        self._c_demand_misses = llc_stats.counter("demand_misses")
        self._c_covered = llc_stats.counter("covered")
        self._c_prefetch_hits = llc_stats.counter("prefetch_hits")
        self._c_late_covered = llc_stats.counter("late_covered")
        self._c_prefetches_issued = llc_stats.counter("prefetches_issued")
        self._c_redundant = llc_stats.counter("redundant_prefetches")
        self._c_rejected = llc_stats.counter("rejected_prefetches")
        self._c_overpredictions = llc_stats.counter("overpredictions")
        self._l1_accesses = [l1.stats.counter("accesses") for l1 in self.l1ds]
        self._l1_hits = [l1.stats.counter("hits") for l1 in self.l1ds]
        self._l1_misses = [l1.stats.counter("misses") for l1 in self.l1ds]

    # -- eviction plumbing ---------------------------------------------------
    # A cache reports its victim as the return value of ``fill``; each
    # fill site hands it here right after the call, so a cache holds no
    # reference back to the hierarchy and a finished run frees itself.
    def _handle_llc_eviction(self, block: int, state: BlockState) -> None:
        if state.prefetched and not state.used:
            self._c_overpredictions.value += 1
        if state.dirty and self.config.model_writebacks:
            self.dram.writeback(self._now, block << self._block_bits)
        if self.train_at == "llc":
            self._notify_eviction(block, state.used)

    def _notify_eviction(self, block: int, was_used: bool) -> None:
        for pf in self._eviction_listeners:
            pf.on_eviction(block, was_used)

    # -- the demand path --------------------------------------------------------
    def access(
        self,
        core_id: int,
        pc: int,
        vaddr: int,
        now: float,
        is_write: bool = False,
    ) -> Tuple[float, int]:
        """One demand load/store from ``core_id`` at cycle ``now``.

        Returns ``(latency, outcome)``: ``L1_HIT``, or the outcome of
        :meth:`l1_miss`.
        """
        block = self.translator.translate(core_id, vaddr) >> self._block_bits

        # ---- L1D ----
        l1 = self.l1ds[core_id]
        self._l1_accesses[core_id].value += 1
        l1_hit = l1.lookup(block) is not None

        # L1-training mode: the prefetcher sees every L1 access.
        if self.prefetchers and self.train_at == "l1":
            self._now = max(self._now, now)
            requests = self.prefetchers[core_id].on_access(AccessInfo(pc, block))
            if requests:
                self._issue_prefetches(core_id, block, requests, now)

        if l1_hit:
            self._l1_hits[core_id].value += 1
            return self._l1_hit_latency, L1_HIT
        self._l1_misses[core_id].value += 1

        latency, outcome = self.l1_miss(core_id, pc, block, now, is_write)
        if outcome:  # not merged into an in-flight miss
            # Fill the L1 (non-inclusive victim handling: L1 victims
            # vanish); in L1-training mode they end region residencies.
            victim = l1.fill(block, BlockState())
            if victim is not None and self.train_at == "l1":
                self._notify_eviction(victim[0], True)
        return latency, outcome

    def l1_miss(
        self,
        core_id: int,
        pc: int,
        block: int,
        now: float,
        is_write: bool,
    ) -> Tuple[float, int]:
        """The tail of one L1D miss issued at cycle ``now``.

        Claims an L1 MSHR (merging with an in-flight miss to ``block``, or
        stalling while the file is full), probes the LLC, reads DRAM on an
        LLC miss, trains the core's prefetcher and issues its prefetches,
        then commits the MSHR entry.  Returns ``(latency, outcome)``: the
        miss's end-to-end latency and one of ``MERGED``, ``LLC_MISS``,
        ``LLC_HIT``, ``COVERED`` or ``LATE``.  The caller fills its L1
        unless the outcome is ``MERGED``.

        Both engine loops call this method once per L1D miss:
        :meth:`access` here, and the fast loop (:mod:`repro.sim.vector`)
        with its own list L1s.  Besides the returned tuple it allocates
        only an LLC fill's block state and the prefetcher's
        ``AccessInfo(pc, block)``, a named tuple built from positional
        arguments.
        """
        l1_hit_latency = self._l1_hit_latency
        mshr = self.l1_mshrs[core_id]
        merged, start = mshr.acquire(block, now)
        if merged is not None:
            return (merged - now) + l1_hit_latency, MERGED
        issue = start + l1_hit_latency
        llc_hit_latency = self._llc_hit_latency

        # ---- LLC (demand) ----
        self._c_demand_accesses.value += 1
        if issue > self._now:
            self._now = issue
        if self._oracle_observe is not None:
            # Belady bookkeeping: consume this block's occurrence so
            # next_use() looks strictly into the future.  Demand accesses
            # only — prefetch fills are not program references.
            self._oracle_observe(block)
        if is_write:
            self._c_demand_writes.value += 1

        state = self.llc.lookup(block)
        sink = self.sink
        if state is not None:
            wait = max(0.0, state.ready_time - issue)
            outcome = LLC_HIT
            if state.prefetched and not state.used:
                # First demand use of a prefetched block: a covered miss.
                state.used = True
                self._c_covered.value += 1
                self._c_prefetch_hits.value += 1
                outcome = COVERED
                if wait > 0:
                    self._c_late_covered.value += 1
                    outcome = LATE
            else:
                self._c_demand_hits.value += 1
            latency = llc_hit_latency + wait
            if is_write:
                state.dirty = True
            if sink.enabled:
                sink.emit(
                    DemandHit(
                        time=issue,
                        core_id=core_id,
                        pc=pc,
                        block=block,
                        covered=outcome >= COVERED,
                        late=outcome == LATE,
                    )
                )
        else:
            outcome = LLC_MISS
            self._c_demand_misses.value += 1
            if sink.enabled:
                sink.emit(
                    DemandMiss(time=issue, core_id=core_id, pc=pc, block=block)
                )
            latency = llc_hit_latency + self.dram.access(
                issue + llc_hit_latency, block << self._block_bits
            )
            # a demand fill: used, and dirty when a store missed
            victim = self.llc.fill(
                block, BlockState(False, issue + latency, True, is_write)
            )
            if victim is not None:
                self._handle_llc_eviction(*victim)

        # ---- train / trigger the prefetcher (LLC placement) ----
        if self.prefetchers and self.train_at == "llc":
            requests = self.prefetchers[core_id].on_access(AccessInfo(pc, block))
            if requests:
                self._issue_prefetches(
                    core_id, block, requests, issue + llc_hit_latency
                )

        total = (issue - now) + l1_hit_latency + latency
        mshr.commit(block, now + total, start)
        return total, outcome

    # -- the prefetch path ----------------------------------------------------
    def _issue_prefetches(
        self,
        core_id: int,
        trigger_block: int,
        requests,
        issue_time: float,
    ) -> None:
        sink = self.sink
        for block in requests:
            if block < 0:
                # A delta/stride prefetcher extrapolated below address
                # zero; real hardware would squash the request.
                self._c_rejected.value += 1
                continue
            if block == trigger_block or self.llc.contains(block):
                self._c_redundant.value += 1
                continue
            latency = self.dram.access(
                issue_time, block << self._block_bits, is_prefetch=True
            )
            ready = issue_time + latency
            victim = self.llc.fill(block, BlockState(True, ready))
            if victim is not None:
                self._handle_llc_eviction(*victim)
            self._c_prefetches_issued.value += 1
            if sink.enabled:
                # The latency model materialises the fill at issue, so
                # the issue/fill pair is emitted back to back; replay
                # checks lean on the pairing, not the timestamps.
                sink.emit(
                    PrefetchIssued(
                        time=issue_time,
                        core_id=core_id,
                        address=block << self._block_bits,
                        block=block,
                        trigger_block=trigger_block,
                        ready_time=ready,
                    )
                )
                sink.emit(
                    PrefetchFill(
                        time=ready, core_id=core_id, block=block, ready_time=ready
                    )
                )

    # -- end-of-run accounting ------------------------------------------------
    def finalize(self) -> None:
        """Count prefetched blocks still resident and unused at run end.

        These are neither covered misses nor (yet) overpredictions; the
        accuracy metric treats them as unused, matching the paper's
        "used before eviction" definition.  A prefetch fills only a
        non-resident block, a demand fill only a missing one, and nothing
        else removes an LLC block, so each issued prefetch is now either
        covered (its first demand use), an overprediction (evicted
        unused) or still resident unused: the whole-run counters give
        the count without scanning the LLC.
        """
        self._llc_stats.set(
            "prefetch_unused_at_end",
            self._c_prefetches_issued.value
            - self._c_covered.value
            - self._c_overpredictions.value,
        )
