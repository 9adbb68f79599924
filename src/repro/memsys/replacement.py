"""Pluggable cache replacement: the policy zoo behind ``--replacement``.

:class:`repro.memsys.cache.Cache` is true-LRU by construction — each set
is an ``OrderedDict`` and ``popitem(last=False)`` *is* the policy.  That
is the right default (and the paper's configuration), but Bingo's
metadata lives in the cache it prefetches into: region residencies are
closed by LLC evictions and the prefetch-bit feedback depends on *which*
block gets victimised, so replacement must be a first-class axis to
stress.  This module extracts the policy decision into an explicit
interface and provides a zoo of implementations.

The interface is *block-keyed*: the cache model stores residency in
per-set dicts, so policies track recency/frequency state against block
numbers and return a victim *block*.  (The prefetchers' metadata tables,
:class:`repro.common.table.SetAssociativeTable`, keep the same per-set
``OrderedDict`` with LRU fixed, and need no policy interface.)  The
contract, enforced by the conformance suite
(``tests/memsys/test_replacement_conformance.py``):

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

See ``docs/replacement.md`` for the design discussion, including why
the simulator has no OPT policy (the exact Belady of the standalone
replay harness lives with the tests, in
``tests/memsys/replay_harness.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List


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
    the block ``popitem(last=False)`` would remove.  Registered as
    ``lru``, which the hierarchy maps to the zero-overhead built-in;
    ``make_replacement("lru")`` builds this class for the replay harness
    and the conformance suite, and the identity suites register it
    under a second name to force a run through this interface and prove
    the generic path changes nothing.
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
    ago survives long after it went cold.
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
# Registry
# ---------------------------------------------------------------------------

#: policies selectable by name everywhere a ``replacement=`` knob exists.
#: ``lru`` is special-cased by the hierarchy to the cache model's native
#: OrderedDict fast path.
_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {
    "lru": LruReplacement,
    "fifo": FifoReplacement,
    "lfu": LfuReplacement,
    "arc": ArcReplacement,
    "2q": TwoQReplacement,
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


def make_replacement(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Construct a replacement policy by registry name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"available: {available_replacements()}"
        ) from None
    return factory(num_sets, ways)


__all__ = [
    "ArcReplacement",
    "FifoReplacement",
    "LfuReplacement",
    "LruReplacement",
    "ReplacementError",
    "ReplacementPolicy",
    "TwoQReplacement",
    "available_replacements",
    "make_replacement",
    "register_replacement",
]
