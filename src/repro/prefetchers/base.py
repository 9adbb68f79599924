"""The prefetcher interface.

A prefetcher observes LLC traffic and proposes block addresses to fetch.
The contract mirrors what a ChampSim LLC prefetcher sees:

* :meth:`Prefetcher.on_access` — every demand access (hit or miss) at the
  LLC, carrying the PC, the physical address and hit/miss status.  It
  returns the prefetch candidates for this trigger.
* :meth:`Prefetcher.on_eviction` — a block left the LLC.  Per-page-history
  prefetchers (Bingo, SMS) treat the first eviction of a tracked region's
  block as end-of-residency and commit the footprint to history.
* :meth:`Prefetcher.on_prefetch_fill` — a previously issued prefetch
  completed its fill (BOP trains on these for timeliness).
* :meth:`Prefetcher.on_prefetch_used` — a demand access consumed one of
  this prefetcher's prefetched blocks (accuracy feedback).

``storage_bits`` reports metadata size for the performance-density study
(Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.common.addresses import AddressMap
from repro.common.stats import StatGroup
from repro.obs.sinks import NULL_SINK, TraceSink


class AccessInfo(NamedTuple):
    """One LLC demand access as seen by a prefetcher.

    An immutable named tuple: one instance is built per training call,
    on the simulator's hot path, and a tuple is built in one step where
    a frozen class pays an ``object.__setattr__`` per field.
    """

    pc: int
    address: int  # physical byte address
    block: int  # physical block number (address >> block_bits)
    hit: bool
    time: float  # core cycles
    core_id: int = 0
    is_write: bool = False

    def __repr__(self) -> str:
        return (
            f"AccessInfo(pc={self.pc:#x}, address={self.address:#x}, "
            f"block={self.block:#x}, hit={self.hit!r}, time={self.time!r}, "
            f"core_id={self.core_id!r}, is_write={self.is_write!r})"
        )


@dataclass(frozen=True)
class PrefetchRequest:
    """A prefetch candidate: a block number plus bookkeeping."""

    block: int
    confidence: float = 1.0


class Prefetcher:
    """Base class for all LLC prefetchers.

    Subclasses override :meth:`on_access` (mandatory) and the notification
    hooks they care about.  ``self.stats`` is wired by the hierarchy so
    per-prefetcher counters land in the run's stat tree; ``self.sink`` is
    wired the same way, and defaults to the null sink so decision-trace
    emission (e.g. Bingo's :class:`~repro.obs.events.VoteDecision`) costs
    one attribute check when observability is off.
    """

    #: Registry name; subclasses set this (e.g. "bingo", "sms").
    name: str = "base"

    def __init__(self, address_map: Optional[AddressMap] = None) -> None:
        self.address_map = address_map if address_map is not None else AddressMap()
        self.stats = StatGroup(self.name)
        self.sink: TraceSink = NULL_SINK
        self.degree_limit: Optional[int] = None

    # -- mandatory hook ----------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[PrefetchRequest]:
        """Observe one LLC access; return prefetch candidates."""
        raise NotImplementedError

    # -- optional hooks -----------------------------------------------------
    def on_eviction(self, block: int, was_used: bool) -> None:
        """A block was evicted from the LLC (``was_used`` = demanded)."""

    def on_prefetch_fill(self, block: int, time: float) -> None:
        """A prefetch issued earlier finished filling the LLC."""

    def on_prefetch_used(self, block: int) -> None:
        """A demand access consumed one of this prefetcher's prefetches.

        Fired by the hierarchy on the *covered* demand hit itself, so
        accuracy-feedback schemes can judge a prefetch as soon as it pays
        off instead of waiting for the block's eviction (which a large
        LLC — or L1-training mode — may never deliver).
        """

    # -- reporting -------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Total metadata storage in bits, for the area model (Fig. 9)."""
        return 0

    @property
    def storage_kib(self) -> float:
        return self.storage_bits / 8 / 1024

    def clamp_degree(self, requests: List[PrefetchRequest]) -> List[PrefetchRequest]:
        """Apply the configured degree limit, if any (iso-degree study)."""
        if self.degree_limit is not None and len(requests) > self.degree_limit:
            return requests[: self.degree_limit]
        return requests

    def reset(self) -> None:
        """Drop all learned state (used between sweep points)."""
        self.stats.reset()


class NullPrefetcher(Prefetcher):
    """The no-prefetcher baseline every figure normalises against."""

    name = "none"

    def on_access(self, info: AccessInfo) -> List[PrefetchRequest]:
        return []
