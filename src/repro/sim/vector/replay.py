"""The engine's fast loop: a scalar walk over packed trace arenas.

The general loop (:meth:`SimulationEngine._run_until`) interleaves cores
by a dispatch-time heap and routes every record through
``MemoryHierarchy.access``.  This module replays the same packed traces
with the same global semantics but touches shared state only where the
general loop's outcome depends on it:

* **Barrier decomposition.**  Only L1 *misses* reach shared machinery
  (per-core MSHRs keyed by call order, the shared LLC/DRAM, the
  translator's shared frame PRNG, ``hierarchy._now``).  L1 hits and
  compute instructions touch nothing but their core's private timing
  state and additive stat counters, so they commute with every other
  core's work.  The driver therefore walks each core up to its next
  miss (the "barrier"), then executes pending barriers one at a time in
  global ``(dispatch, core_id)`` order — exactly the order the general
  loop's heap pops them, because per-core dispatch times strictly
  increase and heap ties break by core id.

* **The walk.**  :meth:`VectorReplay._walk` is the general loop's
  per-record arithmetic verbatim — Python floats through the same
  operations in the same order — over plain-list mirrors of
  :class:`~repro.cpu.core.CoreTimingModel` state.  A run of compute
  records retires in one tight loop: its end is one ``bytes.find`` in a
  byte-per-record kind map, and a run longer than the ROB is split where
  the retire ring wraps, so each slot is read before the record ``rob``
  positions later overwrites it.  The ring starts at ``0.0`` and every
  dispatch time is positive, so the first ``rob`` records need no
  guard.

* **List L1s.**  Each core's L1D is a residency dict (virtual block ->
  flat ``set * ways + way`` slot) over per-slot tag and LRU *stamp*
  lists.  Frames are drawn without replacement and a core maps each
  page once, so within one core a virtual block names exactly one
  physical block: an L1 hit needs no page translation, and a block of
  an unmapped page is never resident, so its first touch ends the
  stretch as a miss.  The barrier resolves the frame (``translate`` on
  first touch, so the shared PRNG draws frames in the general loop's
  order), and the set index and LRU victim stay physical.  A stamp
  holds the instruction index of the block's last touch; indices are
  unique per core, so the minimum stamp of a full set is exactly the
  ``OrderedDict`` LRU victim.  The real L1 ``Cache`` objects are never
  touched (only their counters; accesses, hits and misses are added at
  the end of each :meth:`~VectorReplay.advance`).

* **One miss tail.**  Each barrier is serviced by
  :meth:`MemoryHierarchy.l1_miss <repro.memsys.hierarchy.MemoryHierarchy.l1_miss>`,
  the same MSHR/LLC/DRAM/prefetcher path ``MemoryHierarchy.access``
  takes on an L1 miss; the list L1 is filled unless the miss merged.

Every float is produced by the same operations in the same order as the
general loop, so ``SimResult``\\ s match field for field — the
equality suites (``tests/sim/test_vector.py``) hold the two loops to it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

#: ``bytes.translate`` table of the kind map: compute (flag 0) -> 0,
#: memory -> 1
_KIND = bytes([0] + [1] * 255)


class _CoreState:
    """Private replay state of one core: trace views, timing, list L1."""

    __slots__ = (
        "core_id",
        "pcs",
        "addrs",
        "flags",
        "kinds",
        "count",
        "ring",
        "rob",
        "interval",
        "last_dispatch",
        "last_retire",
        "last_llc",
        "tags",
        "stamp",
        "valid_count",
        "resident",
        "pend_hits",
        "pend_misses",
    )

    def __init__(self, core_id, arena, core, sets, ways) -> None:
        self.core_id = core_id
        # read by index only: ``bytes``/``array`` from a fresh compile,
        # ``memoryview`` from the trace cache
        self.pcs = arena.pcs
        self.addrs = arena.addresses
        self.flags = arena.flags
        # one byte per record, 1 at memory records: a compute run ends
        # at the next 1
        self.kinds = bytes(arena.flags).translate(_KIND)
        self.count = core._count
        self.rob = core._rob
        self.interval = core._dispatch_interval
        # the core's own retire ring, updated in place
        self.ring = core._retire_ring
        self.last_dispatch = core._last_dispatch
        self.last_retire = core._last_retire
        self.last_llc = core._last_load_complete
        # slot -> resident virtual block
        self.tags = [0] * (sets * ways)
        self.stamp = [0] * (sets * ways)
        # valid bits never clear, so ways fill strictly in index order
        # and a set's first free way is its fill count
        self.valid_count = [0] * sets
        # caches start empty when the replay is built, so empty is exact
        self.resident = {}
        # L1 hits and misses since the last writeback
        self.pend_hits = 0
        self.pend_misses = 0


class VectorReplay:
    """Replays a compiled workload against the engine's hierarchy."""

    def __init__(self, engine) -> None:
        self.engine = engine
        h = engine.hierarchy
        self.h = h
        amap = h.address_map
        self.page_bits = amap.page_bits
        self.block_bits = amap.block_bits
        # page -> block shift, and the in-page block-index mask
        self.frame_shift = amap.page_bits - amap.block_bits
        self.page_blocks = (1 << self.frame_shift) - 1
        self.translator = h.translator
        self.mapping = h.translator.mapping_view()
        self.l1_miss = h.l1_miss
        l1cfg = h.config.l1d
        self.hit_lat = l1cfg.hit_latency
        self.ways = l1cfg.ways
        self.set_mask = l1cfg.sets - 1
        self.cores: List[_CoreState] = [
            _CoreState(
                core_id,
                engine.workload.packed(core_id),
                core,
                l1cfg.sets,
                l1cfg.ways,
            )
            for core_id, core in enumerate(engine.cores)
        ]

    # -- the driver -------------------------------------------------------
    def advance(self, budget_per_core: int) -> None:
        """Advance every core to ``budget_per_core`` retired instructions."""
        walk = self._walk
        execute = self._execute_barrier
        cores = self.cores
        heappushpop = heapq.heappushpop
        try:
            pending = []
            for cs in cores:
                dispatch = walk(cs, budget_per_core)
                if dispatch is not None:
                    pending.append((dispatch, cs.core_id))
            heapq.heapify(pending)
            while pending:
                dispatch, core_id = heapq.heappop(pending)
                while True:
                    cs = cores[core_id]
                    execute(cs, dispatch)
                    dispatch = walk(cs, budget_per_core)
                    if dispatch is None:
                        break
                    # returns this barrier right back when it dispatches
                    # before every pending one (tuples with distinct core
                    # ids never tie), sparing the heap a round trip
                    dispatch, core_id = heappushpop(
                        pending, (dispatch, core_id)
                    )
        finally:
            self._writeback()

    # -- running a core to its next barrier -------------------------------
    def _walk(self, cs: _CoreState, budget: int) -> Optional[float]:
        """Retire the core's L1 hits and compute records up to its next
        barrier (an L1 miss, a page's first touch included) or the budget.

        Returns the barrier's dispatch time for the global order heap,
        or None when the core has retired its budget first.  The barrier
        record itself is not consumed.
        """
        i = cs.count
        if i >= budget:
            return None
        flags = cs.flags
        find_memory = cs.kinds.find
        addrs = cs.addrs
        ring = cs.ring
        rob = cs.rob
        interval = cs.interval
        resident = cs.resident
        stamp = cs.stamp
        block_bits = self.block_bits
        lat = self.hit_lat
        last_dispatch = cs.last_dispatch
        last_retire = cs.last_retire
        last_llc = cs.last_llc
        pend = 0
        barrier = None
        while i < budget:
            bits = flags[i]
            if not bits:
                # a compute run: retire it up to the next memory record,
                # one stretch per ring wrap
                end = find_memory(1, i, budget)
                if end < 0:
                    end = budget
                while i < end:
                    r = i % rob
                    stop = i + rob - r
                    if stop > end:
                        stop = end
                    for r in range(r, r + stop - i):
                        dispatch = last_dispatch + interval
                        if ring[r] > dispatch:
                            dispatch = ring[r]
                        complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
                        if complete > last_retire:
                            last_retire = complete
                        ring[r] = last_retire
                        last_dispatch = dispatch
                    i = stop
                continue
            r = i % rob
            dispatch = last_dispatch + interval
            if ring[r] > dispatch:
                dispatch = ring[r]
            slot = resident.get(addrs[i] >> block_bits, -1)
            if slot < 0:
                barrier = dispatch
                break
            issue = dispatch
            if bits & 4 and last_llc > issue:  # depends_on_prev_load
                issue = last_llc
            complete = issue + lat
            if not bits & 2:  # a load
                last_llc = complete
            stamp[slot] = i
            pend += 1
            if complete > last_retire:
                last_retire = complete
            ring[r] = last_retire
            i += 1
            last_dispatch = dispatch
        cs.count = i
        cs.last_dispatch = last_dispatch
        cs.last_retire = last_retire
        cs.last_llc = last_llc
        cs.pend_hits += pend
        return barrier

    # -- barriers ---------------------------------------------------------
    def _execute_barrier(self, cs: _CoreState, dispatch: float) -> None:
        """One L1 miss through the hierarchy's miss tail.

        :meth:`MemoryHierarchy.access` verbatim, with the list L1
        standing in for the ``Cache`` object: the MSHRs, LLC, DRAM,
        prefetchers and the translator's PRNG see byte-identical call
        streams in byte-identical global order.
        """
        index = cs.count
        bits = cs.flags[index]
        is_write = bool(bits & 2)
        core_id = cs.core_id
        issue = dispatch
        if bits & 4 and cs.last_llc > issue:
            issue = cs.last_llc

        vaddr = cs.addrs[index]
        vblock = vaddr >> self.block_bits
        frame = self.mapping.get((core_id, vaddr >> self.page_bits))
        if frame is None:
            # first touch: the real translator allocates.  Only this
            # core's barriers map its pages, and a fresh frame's blocks
            # are in no cache, so the access is an L1 miss.
            block = self.translator.translate(core_id, vaddr) >> self.block_bits
        else:
            block = frame << self.frame_shift | (vblock & self.page_blocks)

        cs.pend_misses += 1
        latency, outcome = self.l1_miss(
            core_id, cs.pcs[index], block, issue, is_write
        )
        if outcome:  # not merged into an in-flight miss: fill the list L1
            # LRU victim by stamp, mirroring ``Cache.fill``
            l1 = self.h.l1ds[core_id]
            ways = self.ways
            set_index = block & self.set_mask
            base = set_index * ways
            filled = cs.valid_count[set_index]
            if filled == ways:
                stamps = cs.stamp[base : base + ways]
                slot = base + stamps.index(min(stamps))
                del cs.resident[cs.tags[slot]]
                l1._evictions.value += 1
            else:
                slot = base + filled
                cs.valid_count[set_index] = filled + 1
            cs.tags[slot] = vblock
            cs.stamp[slot] = index
            cs.resident[vblock] = slot
            l1._fills.value += 1
        complete = issue + latency
        if not is_write:
            cs.last_llc = complete
        retire = cs.last_retire
        if complete > retire:
            retire = complete
        cs.ring[index % cs.rob] = retire
        cs.count = index + 1
        cs.last_dispatch = dispatch
        cs.last_retire = retire

    # -- state writeback --------------------------------------------------
    def _writeback(self) -> None:
        """Mirror replay state back into the real objects.

        Runs at the end of every :meth:`advance` (even on error), before
        any snapshot can observe the cores or the L1 counters: identical
        post-state to the general loop.
        """
        h = self.h
        for cs, core in zip(self.cores, self.engine.cores):
            core._count = cs.count
            core._last_dispatch = cs.last_dispatch
            core._last_retire = cs.last_retire
            core._last_load_complete = cs.last_llc
            core._stat_instructions.value = cs.count
            core._stat_cycles.value = cs.last_retire
            hits, misses = cs.pend_hits, cs.pend_misses
            if hits or misses:
                h._l1_accesses[cs.core_id].value += hits + misses
                h._l1_hits[cs.core_id].value += hits
                h._l1_misses[cs.core_id].value += misses
                cs.pend_hits = cs.pend_misses = 0
