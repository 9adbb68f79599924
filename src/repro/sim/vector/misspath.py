"""The fast loop's shared miss path: inlined MSHR/LLC/DRAM barrier service.

Every barrier of :mod:`repro.sim.vector.replay` is an L1 miss, and all
of them go through one of two service routines, chosen once per run:

* **native** — the LLC uses the cache model's built-in LRU order and no
  Belady oracle is attached.  The whole miss sequence (MSHR → LLC →
  DRAM → prefetcher training) is inlined over hoisted counter cells —
  no ``AccessResult`` allocation, no method dispatch, no repeated
  lazy-expiry passes.  The prefetcher trains only when the run has one.
* **fallback** — a replacement-policy interface or Belady oracle is
  active: the MSHR head is inlined and the LLC/DRAM section goes
  through the real ``MemoryHierarchy._llc_access`` (policies observe
  every touch).  ``engine_tier_counters()`` counts these runs under
  ``demoted_ineligible_policy``.

The channel-busy and open-row DRAM state is shared across cores and is
read and advanced live, in barrier order.  Every float here is produced
by the same operations in the same order as ``MemoryHierarchy.access``
— byte-identical ``SimResult``\\ s across the two engine loops remain
the hard invariant, enforced by ``bingo-sim check --vectorized`` and the
hypothesis property suite.
"""

from __future__ import annotations

import heapq

from repro.common.hashing import mix64
from repro.memsys.cache import BlockState
from repro.prefetchers.base import AccessInfo


class MissPath:
    """Services the fast loop's barriers against the shared level."""

    def __init__(self, replay) -> None:
        h = replay.h
        self.h = h
        cfg = h.config
        self.block_bits = h.address_map.block_bits
        self.block_mask = h.address_map.block_size - 1
        self.l1_hit = cfg.l1d.hit_latency
        self.llc = h.llc
        self.llc_sets = h.llc._sets
        self.llc_set_mask = h.llc._set_mask
        self.llc_hit = cfg.llc.hit_latency
        self.mshrs = h.l1_mshrs
        self.prefetchers = h.prefetchers
        self._issue_prefetches = h._issue_prefetches

        # hoisted stat cells: the shared LLC set (already cells on the
        # hierarchy) plus per-core MSHR cells the inline head needs
        self.c_demand_accesses = h._c_demand_accesses
        self.c_demand_writes = h._c_demand_writes
        self.c_demand_hits = h._c_demand_hits
        self.c_demand_misses = h._c_demand_misses
        self.c_covered = h._c_covered
        self.c_prefetch_hits = h._c_prefetch_hits
        self.c_late_covered = h._c_late_covered
        # MSHR stats go through StatGroup.add like the originals: the
        # counters must stay lazily created, or raw_stats would grow
        # zero-valued keys the general loop never materializes
        self.mshr_stats = [m.stats for m in h.l1_mshrs]

        # DRAM timing scalars + live shared structures (timing_view is
        # the export hook; busy/open_row stay live-mutable references)
        dv = h.dram.timing_view()
        self.d_channels = dv["channels"]
        self.d_banks = dv["banks_per_channel"]
        self.d_rowsz = dv["row_size_bytes"]
        self.d_hit = dv["hit_cycles"]
        self.d_miss = dv["miss_cycles"]
        self.d_occ = dv["occupancy_cycles"]
        self.d_busy = dv["channel_busy"]
        self.d_open = dv["open_row"]
        self.c_reads = h.dram._reads
        self.c_row_hits = h.dram._row_hits
        self.c_row_misses = h.dram._row_misses
        self.c_queued = h.dram._queued
        self.c_queue_cycles = h.dram._queue_cycles

        #: True when an LLC policy interface or oracle forces fallback mode
        self.fallback = h.llc.policy is not None or h._oracle_observe is not None
        self.service = (
            self._service_fallback if self.fallback else self._service_native
        )

    # -- the MSHR head and tail, inlined ------------------------------------
    def _mshr_head(self, mshr, block, now):
        """Inline expiry + merge probe; None means no merge."""
        inflight = mshr._inflight
        if now > mshr._clock:
            mshr._clock = now
        mh = mshr._heap
        if mh and mh[0][0] <= now:
            pop = heapq.heappop
            starts = mshr._starts
            while mh and mh[0][0] <= now:
                t, b = pop(mh)
                if inflight.get(b) == t:
                    del inflight[b]
                    starts.pop(b, None)
        t = inflight.get(block)
        if t is not None and t > now:
            return t
        return None

    def _mshr_reserve(self, mshr, core_id, now):
        """Inline ``MshrFile.reserve`` (post-expiry): stall-adjusted start."""
        inflight = mshr._inflight
        overflow = len(inflight) - mshr.entries + 1
        if overflow <= 0:
            return now
        start = heapq.nsmallest(overflow, inflight.values())[-1]
        self.mshr_stats[core_id].add("stalls")
        return max(now, start)

    def _mshr_commit(self, mshr, core_id, block, finish, start):
        """Inline ``MshrFile.commit`` keeping the pending-start heap."""
        mshr._inflight[block] = finish
        if start > mshr._clock:
            mshr._starts[block] = start
            heapq.heappush(mshr._pending, (start, block))
        else:
            mshr._starts.pop(block, None)
        heapq.heappush(mshr._heap, (finish, block))
        self.mshr_stats[core_id].add("allocations")

    # -- the two service variants -----------------------------------------
    # Each returns (total_latency, filled): the exact latency the
    # ``MemoryHierarchy.access`` miss tail would return, and whether the
    # caller must fill its list L1 (False on an MSHR merge).

    def _service_native(self, cs, index, block, vaddr, now, is_write):
        h = self.h
        core_id = cs.core_id
        mshr = self.mshrs[core_id]
        merged = self._mshr_head(mshr, block, now)
        if merged is not None:
            self.mshr_stats[core_id].add("merges")
            return (merged - now) + self.l1_hit, False
        start = self._mshr_reserve(mshr, core_id, now)
        now2 = start + self.l1_hit

        # ---- _llc_access, inlined (native LRU, no oracle, null sink) ----
        self.c_demand_accesses.value += 1
        if now2 > h._now:
            h._now = now2
        if is_write:
            self.c_demand_writes.value += 1
        entries = self.llc_sets[block & self.llc_set_mask]
        state = entries.get(block)
        hit = state is not None
        if hit:
            entries.move_to_end(block)
            wait = max(0.0, state.ready_time - now2)
            if state.prefetched and not state.used:
                state.used = True
                self.c_covered.value += 1
                self.c_prefetch_hits.value += 1
                if wait > 0:
                    self.c_late_covered.value += 1
                self.prefetchers[state.core_id].on_prefetch_used(block)
            else:
                self.c_demand_hits.value += 1
            lat2 = self.llc_hit + wait
            if is_write:
                state.dirty = True
        else:
            self.c_demand_misses.value += 1
            lat2 = self.llc_hit + self._dram_access(now2 + self.llc_hit, block)
            fill_state = BlockState(core_id=core_id, ready_time=now2 + lat2)
            fill_state.used = True
            fill_state.dirty = is_write
            self.llc.fill(block, fill_state)

        # ---- train / trigger the prefetcher (LLC placement) ----
        if self.prefetchers:
            pf = self.prefetchers[core_id]
            info = AccessInfo(
                pc=cs.pcs[index],
                address=(block << self.block_bits) | (vaddr & self.block_mask),
                block=block,
                hit=hit,
                time=now2,
                core_id=core_id,
                is_write=is_write,
            )
            requests = pf.clamp_degree(pf.on_access(info))
            if requests:
                self._issue_prefetches(
                    pf, core_id, block, requests, now2 + self.llc_hit
                )

        total = (now2 - now) + self.l1_hit + lat2
        self._mshr_commit(mshr, core_id, block, now + total, start)
        return total, True

    def _service_fallback(self, cs, index, block, vaddr, now, is_write):
        """Policy-interface / oracle runs: real ``_llc_access`` per miss."""
        h = self.h
        core_id = cs.core_id
        mshr = self.mshrs[core_id]
        merged = self._mshr_head(mshr, block, now)
        if merged is not None:
            self.mshr_stats[core_id].add("merges")
            return (merged - now) + self.l1_hit, False
        start = self._mshr_reserve(mshr, core_id, now)
        now2 = start + self.l1_hit
        paddr = (block << self.block_bits) | (vaddr & self.block_mask)
        result = h._llc_access(core_id, cs.pcs[index], paddr, block, now2, is_write)
        total = (now2 - now) + self.l1_hit + result.latency
        self._mshr_commit(mshr, core_id, block, now + total, start)
        return total, True

    # -- shared DRAM residue ----------------------------------------------
    def _dram_access(self, t_arr, block):
        """Inline ``DramModel.access``.

        The channel-busy and open-row state is read and advanced live,
        in barrier order — exactly the general loop's float sequence.
        """
        row = (block << self.block_bits) // self.d_rowsz
        hsh = mix64(row)
        ch = hsh % self.d_channels
        bank = (hsh >> 8) % self.d_banks
        busy = self.d_busy[ch]
        startd = t_arr if t_arr >= busy else busy  # max(now, busy)
        queue_delay = startd - t_arr
        orow = self.d_open[ch]
        if orow.get(bank) == row:
            service = self.d_hit
            self.c_row_hits.value += 1
        else:
            service = self.d_miss
            orow[bank] = row
            self.c_row_misses.value += 1
        self.d_busy[ch] = startd + self.d_occ
        self.c_reads.value += 1
        if queue_delay > 0:
            self.c_queued.value += 1
            self.c_queue_cycles.value += queue_delay
        return queue_delay + service
