"""SMS: the single-event (PC+Offset) specialisation."""

from repro.core.events import EventKind
from repro.prefetchers.sms import SmsPrefetcher

from tests.prefetchers.helpers import feed, feed_one


def train_region(pf, region, offsets, pc=0x400):
    feed(pf, [region * 32 + o for o in offsets], pc=pc)
    pf.on_eviction(region * 32 + offsets[0], was_used=True)


def test_uses_only_pc_offset():
    assert SmsPrefetcher().kinds == (EventKind.PC_OFFSET,)


def test_generalises_to_unseen_region():
    pf = SmsPrefetcher()
    train_region(pf, region=0, offsets=[0, 3, 7])
    assert feed_one(pf, 32) == [32 + 3, 32 + 7]


def test_no_pc_address_disambiguation():
    """Unlike Bingo, a region revisit gets the (single) PC+Offset entry —
    which the most recent region overwrote; this is SMS's accuracy gap."""
    pf = SmsPrefetcher()
    train_region(pf, region=0, offsets=[0, 4])
    train_region(pf, region=1, offsets=[0, 9])
    # Revisit region 0: SMS serves region 1's footprint.
    assert feed_one(pf, 0) == [9]


def test_requires_same_pc():
    pf = SmsPrefetcher()
    train_region(pf, region=0, offsets=[0, 3], pc=0x100)
    assert feed_one(pf, 32, pc=0x200) == []


def test_storage_is_paper_sized():
    # Section V: 16 K-entry, 16-way history table.
    pf = SmsPrefetcher()
    assert pf.history.entries == 16 * 1024
    assert pf.history.ways == 16
