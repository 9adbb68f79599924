"""A fast set-associative cache with prefetch-aware block metadata.

Each set is an ``OrderedDict`` keyed by block number, giving O(1) hit,
fill, and true-LRU eviction via ``move_to_end``/``popitem`` — the
representation :class:`repro.common.table.SetAssociativeTable` keeps the
prefetchers' metadata in.  Every set starts as the table module's shared,
never-filled :data:`~repro.common.table.EMPTY_SET`, and :meth:`Cache.fill`
gives a set its own ``OrderedDict`` at its first fill, so a short run
allocates only the sets it touches.  This is the performance-critical
inner loop of the simulator, so the cache shares that representation,
not the table's code: routing every access through the table would add
a Python call.

Block metadata carries what the evaluation needs:

* ``prefetched`` / ``used`` — to classify demand hits on prefetched blocks
  (covered misses) and unused evicted prefetches (overpredictions);
* ``ready_time`` — fill-completion cycle, so a demand access arriving
  before an in-flight prefetch completes pays the *remaining* latency
  (a "late prefetch").

An eviction is reported by return value: :meth:`Cache.fill` returns its
victim, which the owner (:class:`repro.memsys.hierarchy.MemoryHierarchy`)
handles right after the call.  The cache keeps no reference to its
owner, so a finished run is freed by reference counting alone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup
from repro.common.table import EMPTY_SET
from repro.memsys.replacement import ReplacementError, ReplacementPolicy
from repro.obs.events import Eviction
from repro.obs.sinks import NULL_SINK, TraceSink


class BlockState:
    """Metadata of one resident cache block."""

    __slots__ = ("prefetched", "used", "ready_time", "dirty")

    def __init__(
        self,
        prefetched: bool = False,
        ready_time: float = 0.0,
        used: bool = False,
        dirty: bool = False,
    ) -> None:
        self.prefetched = prefetched
        self.used = used
        self.ready_time = ready_time
        self.dirty = dirty

    def __repr__(self) -> str:
        kind = "prefetched" if self.prefetched else "demand"
        return f"BlockState({kind}, used={self.used}, ready={self.ready_time})"


class Cache:
    """Set-associative, true-LRU cache over block numbers.

    The cache is indexed by *block number* (byte address >> 6); the caller
    does the shifting once via :class:`repro.common.addresses.AddressMap`.

    With ``policy=None`` (the default) the set's ``OrderedDict`` order *is*
    the policy — true LRU with zero extra bookkeeping, the original inner
    loop untouched.  Passing a :class:`ReplacementPolicy` routes victim
    choice through its ``victim()`` hook instead and mirrors every
    residency change into it; the policy's contract (resident victims,
    determinism) is documented in :mod:`repro.memsys.replacement`.
    """

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        stats: Optional[StatGroup] = None,
        sink: TraceSink = NULL_SINK,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else StatGroup(name)
        # end-of-residency trace events; NULL_SINK keeps the eviction
        # path at one attribute check when observability is off
        self.sink = sink if sink is not None else NULL_SINK
        self.num_sets = config.sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self._sets = [EMPTY_SET] * self.num_sets
        if policy is not None and (
            policy.num_sets != self.num_sets or policy.ways != self.ways
        ):
            raise ValueError(
                f"{name}: policy geometry {policy.num_sets}x{policy.ways} "
                f"does not match cache geometry {self.num_sets}x{self.ways}"
            )
        self.policy = policy
        # fast-path counter cells: fills/evictions run once per miss
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")
        self._invalidations = self.stats.counter("invalidations")

    # -- indexing ---------------------------------------------------------
    def set_index(self, block: int) -> int:
        return block & self._set_mask

    # -- lookups -----------------------------------------------------------
    def lookup(self, block: int, touch: bool = True) -> Optional[BlockState]:
        """Return the block's state on a hit (updating LRU), else None."""
        entries = self._sets[block & self._set_mask]
        state = entries.get(block)
        if state is not None and touch:
            entries.move_to_end(block)
            if self.policy is not None:
                self.policy.touch(block & self._set_mask, block)
        return state

    def contains(self, block: int) -> bool:
        return block in self._sets[block & self._set_mask]

    # -- fills / evictions -----------------------------------------------------
    def fill(
        self, block: int, state: BlockState
    ) -> Optional[Tuple[int, BlockState]]:
        """Insert ``block``; returns the evicted ``(block, state)`` if any.

        Filling a block that is already resident replaces its state (this
        happens when a demand miss races an in-flight prefetch; the caller
        is expected to check first, but the behaviour is well defined).
        """
        set_index = block & self._set_mask
        entries = self._sets[set_index]
        policy = self.policy
        if block in entries:
            entries[block] = state
            entries.move_to_end(block)
            if policy is not None:
                policy.touch(set_index, block)
            return None
        victim = None
        if len(entries) >= self.ways:
            if policy is None:
                victim_block, victim_state = entries.popitem(last=False)
            else:
                victim_block = policy.victim(set_index, block)
                victim_state = entries.pop(victim_block, None)
                if victim_state is None:
                    raise ReplacementError(
                        f"{self.name}/{policy.name}: victim "
                        f"{victim_block:#x} is not resident in set "
                        f"{set_index} (residents: "
                        f"{sorted(entries)})"
                    )
                policy.remove(set_index, victim_block)
            victim = (victim_block, victim_state)
            self._evictions.value += 1
            if self.sink.enabled:
                self.sink.emit(
                    Eviction(
                        cache=self.name,
                        block=victim_block,
                        prefetched=victim_state.prefetched,
                        used=victim_state.used,
                    )
                )
        elif entries is EMPTY_SET:
            entries = self._sets[set_index] = OrderedDict()
        entries[block] = state
        if policy is not None:
            policy.insert(set_index, block)
        self._fills.value += 1
        return victim

    def invalidate(self, block: int) -> Optional[BlockState]:
        """Remove ``block`` if resident; returns its state, else None."""
        entries = self._sets[block & self._set_mask]
        state = entries.pop(block, None)
        if state is not None:
            if self.policy is not None:
                self.policy.remove(block & self._set_mask, block)
            self._invalidations.value += 1
            if self.sink.enabled:
                self.sink.emit(
                    Eviction(
                        cache=self.name,
                        block=block,
                        prefetched=state.prefetched,
                        used=state.used,
                    )
                )
        return state

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.ways)

    def resident_blocks(self) -> Iterator[int]:
        for entries in self._sets:
            yield from entries.keys()
