"""Pluggable cache replacement: the policy zoo behind ``--replacement``.

:class:`repro.memsys.cache.Cache` is true-LRU by construction — each set
is an ``OrderedDict`` and ``popitem(last=False)`` *is* the policy.  That
is the right default (and the paper's configuration), but Bingo's
metadata lives in the cache it prefetches into: region residencies are
closed by LLC evictions and the prefetch-bit feedback depends on *which*
block gets victimised, so replacement must be a first-class axis to
stress.  This module extracts the policy decision into an explicit
interface and provides a zoo of implementations plus an OPT (Belady)
oracle as the upper-bound baseline.

The interface is *block-keyed*, not way-keyed (contrast
:class:`repro.common.table.SetAssociativeTable`, the prefetchers'
metadata tables, which keep a fixed LRU order over way indices and need
no policy interface): the cache model stores residency in per-set dicts,
so policies track recency/frequency state against block numbers and
return a victim *block*.  The contract, enforced by the conformance
suite (``tests/memsys/test_replacement_conformance.py``):

* ``touch(set_index, block)`` — the resident block was referenced
  (lookup hit, or a fill of an already-resident block);
* ``insert(set_index, block)`` — the block became resident;
* ``remove(set_index, block)`` — the block left the set (eviction of
  the policy's own victim, or an external invalidation);
* ``victim(set_index, incoming)`` — choose the block to evict; it MUST
  be currently resident in ``set_index``, and the choice must be a
  deterministic function of the call history (no wall-clock, no
  unseeded randomness).

``Cache.fill`` raises :class:`ReplacementError` when a policy returns a
non-resident victim, so a buggy policy fails loudly at the exact
eviction rather than corrupting occupancy accounting downstream.

Determinism matters doubly here: results must be bit-reproducible for
the executor's digest-addressed result cache, and the differential
suite replays runs event-for-event.

See ``docs/replacement.md`` for the design discussion, including how
the Belady oracle pre-scans packed trace arenas and why it is exact in
the standalone replay harness but an upper-bound *approximation* inside
the full L1-filtered hierarchy.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: "never referenced again" — sorts after every real next-use key
NEVER = float("inf")


class ReplacementError(RuntimeError):
    """A policy violated its contract (e.g. returned a non-resident victim)."""


class ReplacementPolicy:
    """Replacement state for one cache: ``num_sets`` independent sets.

    Subclasses override the four hooks below.  Policies own *only*
    ordering/frequency metadata — residency truth lives in the cache's
    per-set dicts, and the conformance suite cross-checks the two.
    """

    #: registry key; subclasses set it (used in reports and errors)
    name = "?"

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError(
                f"num_sets and ways must be positive, got {num_sets}x{ways}"
            )
        self.num_sets = num_sets
        self.ways = ways

    # -- the contract -------------------------------------------------------
    def touch(self, set_index: int, block: int) -> None:
        raise NotImplementedError

    def insert(self, set_index: int, block: int) -> None:
        raise NotImplementedError

    def remove(self, set_index: int, block: int) -> None:
        raise NotImplementedError

    def victim(self, set_index: int, incoming: int) -> int:
        """The block to evict from ``set_index`` to admit ``incoming``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_sets}x{self.ways}, "
            f"name={self.name!r})"
        )


class LruReplacement(ReplacementPolicy):
    """Least-recently-used via per-set ``OrderedDict`` recency order.

    Byte-identical to the cache model's built-in fast path: the same
    container, the same ``move_to_end`` on touches, and ``victim`` is
    the block ``popitem(last=False)`` would remove.  Registered twice —
    as ``lru`` (which the hierarchy maps to the zero-overhead built-in)
    and as ``lru-interface`` (forced through this interface), so the
    differential suite can prove the generic path changes nothing.
    """

    name = "lru"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._order: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(num_sets)
        ]

    def touch(self, set_index: int, block: int) -> None:
        self._order[set_index].move_to_end(block)

    def insert(self, set_index: int, block: int) -> None:
        self._order[set_index][block] = None

    def remove(self, set_index: int, block: int) -> None:
        self._order[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        return next(iter(self._order[set_index]))


class FifoReplacement(ReplacementPolicy):
    """First-in-first-out: eviction order is insertion order.

    Touches do not refresh a block's position — that is the whole
    difference from LRU, and why FIFO suffers on reuse-heavy sets while
    matching LRU on pure streams (every block is touched once).
    """

    name = "fifo"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._order: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(num_sets)
        ]

    def touch(self, set_index: int, block: int) -> None:
        pass  # reuse does not delay a FIFO eviction

    def insert(self, set_index: int, block: int) -> None:
        entries = self._order[set_index]
        entries.pop(block, None)  # re-fill restarts the queue position
        entries[block] = None

    def remove(self, set_index: int, block: int) -> None:
        self._order[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        return next(iter(self._order[set_index]))


class LfuReplacement(ReplacementPolicy):
    """Least-frequently-used with FIFO tie-breaking.

    Each resident block carries ``(references, arrival)``; the victim
    minimises references, oldest arrival first on ties — the classic
    deterministic LFU.  Frequency state dies with the block (no
    LFU-with-aging), which makes LFU maximally sticky: a block hot long
    ago survives long after it went cold.  That pathology is deliberate;
    the phase-change workloads exist to expose it.
    """

    name = "lfu"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        #: per set: block -> [references, arrival_sequence]
        self._meta: List[Dict[int, List[int]]] = [
            {} for _ in range(num_sets)
        ]
        self._arrivals = 0

    def touch(self, set_index: int, block: int) -> None:
        self._meta[set_index][block][0] += 1

    def insert(self, set_index: int, block: int) -> None:
        self._arrivals += 1
        self._meta[set_index][block] = [1, self._arrivals]

    def remove(self, set_index: int, block: int) -> None:
        self._meta[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        meta = self._meta[set_index]
        return min(meta, key=lambda blk: (meta[blk][0], meta[blk][1]))


class ArcReplacement(ReplacementPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha), one ARC per set.

    Residents split into ``T1`` (seen once) and ``T2`` (seen twice+);
    ghosts of recent evictions live in ``B1``/``B2``.  A hit in a ghost
    list steers the adaptation target ``p`` toward the list that would
    have kept the block — recency pressure grows ``p``, frequency
    pressure shrinks it.  ARC is normally described for one
    fully-associative cache; per-set instances with capacity ``ways``
    partition exactly like the hardware does.

    The cache drives the protocol in two calls: ``victim`` implements
    REPLACE (choose the T1/T2 LRU and remember it as a ghost), then
    ``insert`` files the incoming block (T2 on a ghost hit and adapts
    ``p``, T1 otherwise).
    """

    name = "arc"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        make = lambda: OrderedDict()  # noqa: E731 - four short aliases
        self._t1 = [make() for _ in range(num_sets)]
        self._t2 = [make() for _ in range(num_sets)]
        self._b1 = [make() for _ in range(num_sets)]
        self._b2 = [make() for _ in range(num_sets)]
        self._p = [0.0] * num_sets

    def touch(self, set_index: int, block: int) -> None:
        t1 = self._t1[set_index]
        t2 = self._t2[set_index]
        if block in t1:  # second reference promotes to the frequency side
            del t1[block]
            t2[block] = None
        elif block in t2:
            t2.move_to_end(block)

    def insert(self, set_index: int, block: int) -> None:
        c = self.ways
        t1, t2 = self._t1[set_index], self._t2[set_index]
        b1, b2 = self._b1[set_index], self._b2[set_index]
        if block in b1:
            # recency ghost hit: grow p, admit straight into T2
            self._p[set_index] = min(
                float(c), self._p[set_index] + max(1.0, len(b2) / len(b1))
            )
            del b1[block]
            t2[block] = None
        elif block in b2:
            # frequency ghost hit: shrink p, admit into T2
            self._p[set_index] = max(
                0.0, self._p[set_index] - max(1.0, len(b1) / len(b2))
            )
            del b2[block]
            t2[block] = None
        else:
            t1[block] = None
            # directory bound: |T1|+|B1| <= c, total directory <= 2c
            if len(t1) + len(b1) > c and b1:
                b1.popitem(last=False)
            while len(t1) + len(t2) + len(b1) + len(b2) > 2 * c and (b1 or b2):
                ghosts = b2 if b2 else b1
                ghosts.popitem(last=False)

    def remove(self, set_index: int, block: int) -> None:
        # external invalidation: drop without creating a ghost (the block
        # did not lose a capacity contest, so it must not steer p)
        self._t1[set_index].pop(block, None)
        self._t2[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        t1, t2 = self._t1[set_index], self._t2[set_index]
        b1, b2 = self._b1[set_index], self._b2[set_index]
        p = self._p[set_index]
        prefer_t1 = bool(t1) and (
            len(t1) > p or (incoming in b2 and len(t1) == int(p))
        )
        if prefer_t1 or not t2:
            victim = next(iter(t1))
            del t1[victim]
            b1[victim] = None
        else:
            victim = next(iter(t2))
            del t2[victim]
            b2[victim] = None
        return victim


class TwoQReplacement(ReplacementPolicy):
    """The 2Q policy (Johnson & Shasha): A1in FIFO + ghost A1out + Am LRU.

    New blocks enter the short FIFO ``A1in``; only blocks re-referenced
    *after* falling out of it (their ghost still in ``A1out``) earn a
    place in the long-term LRU ``Am``.  One-touch scan traffic therefore
    washes through A1in without displacing the hot set — the scan
    resistance plain LRU lacks.  ``Kin``/``Kout`` follow the paper's
    rule of thumb (25 % of capacity in, 50 % of capacity remembered).
    """

    name = "2q"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self.kin = max(1, ways // 4)
        self.kout = max(1, ways // 2)
        self._a1in = [OrderedDict() for _ in range(num_sets)]
        self._a1out = [OrderedDict() for _ in range(num_sets)]
        self._am = [OrderedDict() for _ in range(num_sets)]

    def touch(self, set_index: int, block: int) -> None:
        am = self._am[set_index]
        if block in am:
            am.move_to_end(block)
        # a hit inside A1in deliberately does nothing: 2Q only promotes
        # on re-reference after A1in eviction (correlated references to
        # a just-fetched block are not evidence of long-term heat)

    def insert(self, set_index: int, block: int) -> None:
        a1out = self._a1out[set_index]
        if block in a1out:
            del a1out[block]
            self._am[set_index][block] = None
        else:
            self._a1in[set_index][block] = None

    def remove(self, set_index: int, block: int) -> None:
        self._a1in[set_index].pop(block, None)
        self._am[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        a1in = self._a1in[set_index]
        am = self._am[set_index]
        if len(a1in) >= self.kin and a1in or not am:
            victim = next(iter(a1in))
            del a1in[victim]
            a1out = self._a1out[set_index]
            a1out[victim] = None
            while len(a1out) > self.kout:
                a1out.popitem(last=False)
        else:
            victim = next(iter(am))
            del am[victim]
        return victim


# ---------------------------------------------------------------------------
# OPT (Belady) and its oracles
# ---------------------------------------------------------------------------


class SequenceOracle:
    """Exact next-use oracle over a fully known block sequence.

    Used by :func:`replay_trace`, where the whole reference stream is in
    hand: occurrence positions are indexed up front, ``observe`` consumes
    them strictly in order, and ``next_use`` is the literal index of the
    block's next reference.  With this oracle Belady's MIN is *optimal*
    per set (each set sees an independent substream at full capacity
    ``ways``), which is exactly what the hypothesis dominance property
    asserts.
    """

    def __init__(self, blocks: Iterable[int]) -> None:
        occ: Dict[int, List[int]] = {}
        for position, block in enumerate(blocks):
            occ.setdefault(block, []).append(position)
        self._occ = occ
        self._cursor: Dict[int, int] = {}

    def observe(self, block: int) -> None:
        """Consume the block's current occurrence (called once per access)."""
        self._cursor[block] = self._cursor.get(block, 0) + 1

    def next_use(self, block: int) -> float:
        positions = self._occ.get(block)
        if positions is None:
            return NEVER
        cursor = self._cursor.get(block, 0)
        return positions[cursor] if cursor < len(positions) else NEVER


class TraceOracle:
    """Next-use oracle pre-scanned from a compiled workload's packed arenas.

    The full simulator cannot know its exact future LLC reference stream
    (L1 filtering and MSHR merges depend on timing), but it *can* know
    the program's: one pass over the packed per-core address arrays
    yields every future reference to every virtual block.  Per-core
    record indices are interleaved into a single global key
    (``record_index * num_cores + core_id`` — cores dispatch at equal
    intervals, so index order is the scalar heap's order to first
    approximation), and physical blocks are resolved back to
    ``(core, virtual block)`` through the translator's frame-owner
    inverse, which random first-touch allocation keeps injective.

    ``observe`` is called for every LLC demand access; it advances a
    monotone clock to the consumed occurrence's key, lazily skipping
    occurrences that never reached the LLC (L1 hits, MSHR merges).
    ``next_use`` is the first occurrence strictly after the clock —
    i.e. Belady over the *program* stream, an upper-bound heuristic for
    the filtered stream (see docs/replacement.md for why the distinction
    is immaterial in the standalone optimality proof and minor here).
    """

    def __init__(self, workload, system) -> None:
        amap = system.address_map
        self._block_bits = amap.block_bits
        self._page_block_bits = amap.page_bits - amap.block_bits
        self._offset_mask = (1 << self._page_block_bits) - 1
        self._translator = None  # bound by the hierarchy via attach()
        num_cores = workload.num_cores
        occ: Dict[Tuple[int, int], List[int]] = {}
        block_bits = self._block_bits
        for core_id in range(num_cores):
            arena = workload.packed(core_id)
            addresses = arena.addresses
            flags = arena.flags
            for index in range(arena.records):
                if flags[index]:
                    vblock = addresses[index] >> block_bits
                    occ.setdefault((core_id, vblock), []).append(
                        index * num_cores + core_id
                    )
        self._occ = occ
        self._cursor: Dict[Tuple[int, int], int] = {}
        self._clock = -1

    def attach(self, translator) -> None:
        """Bind the live translator (supplies the frame-owner inverse)."""
        self._translator = translator

    def _resolve(self, block: int) -> Optional[Tuple[int, int]]:
        frame = block >> self._page_block_bits
        owner = self._translator.frame_owner(frame)
        if owner is None:
            return None
        core_id, vpage = owner
        return core_id, (vpage << self._page_block_bits) | (
            block & self._offset_mask
        )

    def _advance(self, key: Optional[Tuple[int, int]]) -> Tuple[list, int]:
        positions = self._occ.get(key, ())
        cursor = self._cursor.get(key, 0)
        clock = self._clock
        while cursor < len(positions) and positions[cursor] <= clock:
            cursor += 1
        if key is not None:
            self._cursor[key] = cursor
        return positions, cursor

    def observe(self, block: int) -> None:
        """One LLC demand access to ``block``: consume its occurrence."""
        key = self._resolve(block)
        if key is None:
            return
        positions, cursor = self._advance(key)
        if cursor < len(positions):
            self._clock = positions[cursor]
            self._cursor[key] = cursor + 1

    def next_use(self, block: int) -> float:
        key = self._resolve(block)
        if key is None:
            return NEVER
        positions, cursor = self._advance(key)
        return positions[cursor] if cursor < len(positions) else NEVER


class BeladyReplacement(ReplacementPolicy):
    """OPT: evict the resident block referenced farthest in the future.

    Needs an oracle (:class:`SequenceOracle` or :class:`TraceOracle`)
    for ``next_use``; without one every block reads as never-used-again
    and the policy degrades to FIFO order — still a valid (if pointless)
    policy, which keeps the conformance suite able to instantiate it
    uniformly.  Ties (including multiple never-again blocks) break
    toward the oldest insertion, deterministically.
    """

    name = "opt"

    def __init__(self, num_sets: int, ways: int, oracle=None) -> None:
        super().__init__(num_sets, ways)
        self.oracle = oracle
        self._order: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(num_sets)
        ]

    def touch(self, set_index: int, block: int) -> None:
        pass  # the oracle, not recency, carries all the information

    def insert(self, set_index: int, block: int) -> None:
        self._order[set_index][block] = None

    def remove(self, set_index: int, block: int) -> None:
        self._order[set_index].pop(block, None)

    def victim(self, set_index: int, incoming: int) -> int:
        oracle = self.oracle
        best = None
        best_key = -1.0
        for block in self._order[set_index]:
            key = oracle.next_use(block) if oracle is not None else NEVER
            if key > best_key:  # strict: first-inserted wins ties
                best = block
                best_key = key
                if key == NEVER:
                    break  # nothing sorts after "never again"
        if best is None:  # pragma: no cover - empty set is a cache bug
            raise ReplacementError(f"victim() on empty set {set_index}")
        return best


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: policies selectable by name everywhere a ``replacement=`` knob exists.
#: ``lru`` is special-cased by the hierarchy to the cache model's native
#: OrderedDict fast path; ``lru-interface`` is the same policy forced
#: through this module's interface (differential testing).
_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {
    "lru": LruReplacement,
    "lru-interface": LruReplacement,
    "fifo": FifoReplacement,
    "lfu": LfuReplacement,
    "arc": ArcReplacement,
    "2q": TwoQReplacement,
    "opt": BeladyReplacement,
}


def available_replacements() -> List[str]:
    """All registered policy names, sorted."""
    return sorted(_REGISTRY)


def register_replacement(
    name: str, factory: Callable[..., ReplacementPolicy], replace: bool = False
) -> None:
    """Register a custom policy under ``name`` (for plugins and tests)."""
    key = name.lower()
    if not replace and key in _REGISTRY:
        raise ValueError(f"replacement policy {name!r} is already registered")
    _REGISTRY[key] = factory


def make_replacement(
    name: str, num_sets: int, ways: int, oracle=None
) -> ReplacementPolicy:
    """Construct a replacement policy by registry name.

    ``oracle`` is consumed by ``opt`` (and ignored by heuristics): the
    engine builds a :class:`TraceOracle` from the compiled workload and
    threads it through here.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"available: {available_replacements()}"
        ) from None
    if factory is BeladyReplacement:
        return BeladyReplacement(num_sets, ways, oracle=oracle)
    return factory(num_sets, ways)


# ---------------------------------------------------------------------------
# Standalone replay harness
# ---------------------------------------------------------------------------


class ReplayStats:
    """Counters from one :func:`replay_trace` run."""

    __slots__ = ("accesses", "hits", "misses", "evictions", "victims")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: victim blocks in eviction order (conformance/differential use)
        self.victims: List[int] = []

    def __repr__(self) -> str:
        return (
            f"ReplayStats(accesses={self.accesses}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


def replay_trace(
    blocks: Iterable[int],
    num_sets: int,
    ways: int,
    policy: str = "lru",
) -> ReplayStats:
    """Replay a block reference stream through one demand-fill cache level.

    This is the policy zoo's proving ground: a plain set-associative
    cache with no timing, no prefetching, and no upper level — the
    setting where Belady's MIN theorem actually applies.  ``policy``
    names a registry entry; ``"opt"`` gets an exact
    :class:`SequenceOracle` built from the full stream, so its miss
    count lower-bounds every other policy's on the same stream and
    geometry (the hypothesis suite holds the zoo to exactly that).
    """
    blocks = list(blocks)
    oracle = SequenceOracle(blocks) if policy.lower() == "opt" else None
    engine = make_replacement(policy, num_sets, ways, oracle=oracle)
    mask = num_sets - 1
    if num_sets & mask:
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")
    resident: List[set] = [set() for _ in range(num_sets)]
    stats = ReplayStats()
    for block in blocks:
        set_index = block & mask
        if oracle is not None:
            oracle.observe(block)
        stats.accesses += 1
        entries = resident[set_index]
        if block in entries:
            stats.hits += 1
            engine.touch(set_index, block)
            continue
        stats.misses += 1
        if len(entries) >= ways:
            victim = engine.victim(set_index, block)
            if victim not in entries:
                raise ReplacementError(
                    f"{engine.name}: victim {victim:#x} is not resident "
                    f"in set {set_index}"
                )
            entries.remove(victim)
            engine.remove(set_index, victim)
            stats.evictions += 1
            stats.victims.append(victim)
        entries.add(block)
        engine.insert(set_index, block)
    return stats


__all__ = [
    "NEVER",
    "ArcReplacement",
    "BeladyReplacement",
    "FifoReplacement",
    "LfuReplacement",
    "LruReplacement",
    "ReplacementError",
    "ReplacementPolicy",
    "ReplayStats",
    "SequenceOracle",
    "TraceOracle",
    "TwoQReplacement",
    "available_replacements",
    "make_replacement",
    "register_replacement",
    "replay_trace",
]
