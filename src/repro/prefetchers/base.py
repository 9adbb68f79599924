"""The prefetcher interface.

A prefetcher observes LLC traffic and proposes blocks to fetch.  The
contract is exactly what :class:`repro.memsys.hierarchy.MemoryHierarchy`
and the engine call, and mirrors what a ChampSim LLC prefetcher sees:

* :meth:`Prefetcher.on_access` — every demand access (hit or miss) at the
  LLC, carrying the trigger PC and the physical block number.  It
  returns the prefetch candidates for this trigger as block numbers.
* :meth:`Prefetcher.on_eviction` — a block left the LLC.  Per-page-history
  prefetchers (Bingo, SMS) treat the first eviction of a tracked region's
  block as end-of-residency and commit the footprint to history.
* ``storage_bits`` — metadata size for the performance-density study
  (Fig. 9).

Every run builds fresh prefetchers, so none carries a reset.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.common.addresses import AddressMap
from repro.common.stats import StatGroup
from repro.obs.sinks import NULL_SINK, TraceSink


class AccessInfo(NamedTuple):
    """One LLC demand access as seen by a prefetcher: the trigger PC and
    the block it touched, the two facts every prefetcher here learns from.

    An immutable named tuple: one instance is built per training call,
    on the simulator's hot path, and a tuple is built in one step where
    a frozen class pays an ``object.__setattr__`` per field.
    """

    pc: int
    block: int  # physical block number (byte address >> block_bits)

    def __repr__(self) -> str:
        return f"AccessInfo(pc={self.pc:#x}, block={self.block:#x})"


class Prefetcher:
    """Base class for all LLC prefetchers.

    Subclasses override :meth:`on_access` (mandatory) and, if they track
    residency, :meth:`on_eviction`.  ``self.stats`` is wired by the
    hierarchy so per-prefetcher counters land in the run's stat tree;
    ``self.sink`` is wired the same way, and defaults to the null sink so
    decision-trace emission (e.g. Bingo's
    :class:`~repro.obs.events.VoteDecision`) costs one attribute check
    when observability is off.
    """

    #: Registry name; subclasses set this (e.g. "bingo", "sms").
    name: str = "base"

    def __init__(self, address_map: Optional[AddressMap] = None) -> None:
        self.address_map = address_map if address_map is not None else AddressMap()
        self.stats = StatGroup(self.name)
        self.sink: TraceSink = NULL_SINK

    # -- mandatory hook ----------------------------------------------------
    def on_access(self, info: AccessInfo) -> List[int]:
        """Observe one LLC access; return the block numbers to prefetch."""
        raise NotImplementedError

    # -- optional hook ----------------------------------------------------
    def on_eviction(self, block: int, was_used: bool) -> None:
        """A block was evicted from the LLC (``was_used`` = demanded)."""

    # -- reporting -------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Total metadata storage in bits, for the area model (Fig. 9)."""
        return 0


class NullPrefetcher(Prefetcher):
    """The no-prefetcher baseline every figure normalises against."""

    name = "none"

    def on_access(self, info: AccessInfo) -> List[int]:
        return []
