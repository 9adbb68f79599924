"""The event taxonomy of Section III.

An *event* is the context extracted from a region's trigger access to
which the region's footprint is associated.  The paper evaluates five,
ordered longest (most incidents, most selective) to shortest:

``PC+Address`` > ``PC+Offset`` > ``PC`` > ``Address`` > ``Offset``

where *Address* is the trigger's block address and *Offset* is the
trigger block's index within its region.  Longer events match rarely but
predict accurately; shorter events match often but predict loosely —
the trade-off Figs. 2 and 3 quantify and Bingo's dual-event design
exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.common.hashing import combine, combine_from


class EventKind(enum.Enum):
    """The five trigger-context heuristics of the motivation study."""

    PC_ADDRESS = "pc+address"
    PC_OFFSET = "pc+offset"
    PC = "pc"
    ADDRESS = "address"
    OFFSET = "offset"

    @property
    def includes_offset(self) -> bool:
        """True if matching this event implies the trigger offsets agree.

        Events that pin the offset let a stored footprint be applied to a
        new region without re-anchoring, because footprints are recorded
        relative to the region base and the trigger falls at the same
        offset.  Only the bare ``PC`` event lacks this property.
        """
        return self is not EventKind.PC

    @property
    def length(self) -> int:
        """Number of 'incidents' the event conjoins (for ordering)."""
        return _LENGTH[self]


_LENGTH = {
    EventKind.PC_ADDRESS: 3,  # instruction + page + offset
    EventKind.PC_OFFSET: 2,
    EventKind.PC: 1,
    EventKind.ADDRESS: 2,  # page + offset
    EventKind.OFFSET: 1,
}

#: The paper's ordering for cascaded lookups (Figs. 2 and 3).
LONGEST_TO_SHORTEST: Tuple[EventKind, ...] = (
    EventKind.PC_ADDRESS,
    EventKind.PC_OFFSET,
    EventKind.PC,
    EventKind.ADDRESS,
    EventKind.OFFSET,
)


@dataclass(frozen=True)
class Event:
    """A concrete event instance: a kind plus its hashed key.

    ``key`` is a deterministic 64-bit digest of the kind's components, so
    events are directly usable as tags/indices in associative tables.
    """

    kind: EventKind
    key: int

    @staticmethod
    def from_trigger(kind: EventKind, pc: int, block: int, offset: int) -> "Event":
        """Extract the event of ``kind`` from a trigger access.

        Parameters
        ----------
        pc:
            Program counter of the trigger instruction.
        block:
            Physical block number of the trigger access.
        offset:
            Trigger block's index within its region.
        """
        return Event(kind=kind, key=event_key(kind, pc, block, offset))


# Every key is ``combine(tag, *components)`` with a constant per-kind tag;
# its first round is hashed here once instead of on every extraction.
_PC_ADDRESS_SEED = combine(1)
_PC_OFFSET_SEED = combine(2)
_PC_SEED = combine(3)
_ADDRESS_SEED = combine(4)
_OFFSET_SEED = combine(5)


def event_key(kind: EventKind, pc: int, block: int, offset: int) -> int:
    """``Event.from_trigger(kind, pc, block, offset).key``, without the Event.

    The history tables only need the key; they call this on every
    trigger and every commit.
    """
    if kind is EventKind.PC_ADDRESS:
        return combine_from(_PC_ADDRESS_SEED, pc, block)
    if kind is EventKind.PC_OFFSET:
        return combine_from(_PC_OFFSET_SEED, pc, offset)
    if kind is EventKind.PC:
        return combine_from(_PC_SEED, pc)
    if kind is EventKind.ADDRESS:
        return combine_from(_ADDRESS_SEED, block)
    return combine_from(_OFFSET_SEED, offset)  # EventKind.OFFSET


def extract_all(pc: int, block: int, offset: int) -> Tuple[Event, ...]:
    """All five events of a trigger access, longest first.

    This is the paper's observation that *short events are carried in long
    events*: everything here is derived from the same (pc, block, offset).
    """
    return tuple(
        Event.from_trigger(kind, pc, block, offset) for kind in LONGEST_TO_SHORTEST
    )
