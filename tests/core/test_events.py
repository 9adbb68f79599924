"""The event taxonomy: extraction, ordering, the carried-in property."""

import pytest
from hypothesis import given, strategies as st

from repro.core.events import (
    Event,
    EventKind,
    LONGEST_TO_SHORTEST,
    extract_all,
)
from repro.core.history import BingoHistoryTable


class TestOrdering:
    def test_paper_order(self):
        assert LONGEST_TO_SHORTEST[0] is EventKind.PC_ADDRESS
        assert LONGEST_TO_SHORTEST[1] is EventKind.PC_OFFSET
        assert LONGEST_TO_SHORTEST[-1] is EventKind.OFFSET

    def test_lengths_monotone_nonincreasing_at_ends(self):
        lengths = [kind.length for kind in LONGEST_TO_SHORTEST]
        assert lengths[0] == max(lengths)
        assert lengths[-1] == min(lengths)

    def test_includes_offset(self):
        assert EventKind.PC_ADDRESS.includes_offset
        assert EventKind.PC_OFFSET.includes_offset
        assert EventKind.ADDRESS.includes_offset
        assert EventKind.OFFSET.includes_offset
        assert not EventKind.PC.includes_offset


class TestExtraction:
    def test_pc_address_distinguishes_blocks(self):
        a = Event.from_trigger(EventKind.PC_ADDRESS, pc=1, block=10, offset=2)
        b = Event.from_trigger(EventKind.PC_ADDRESS, pc=1, block=11, offset=2)
        assert a.key != b.key

    def test_pc_offset_ignores_block(self):
        a = Event.from_trigger(EventKind.PC_OFFSET, pc=1, block=10, offset=2)
        b = Event.from_trigger(EventKind.PC_OFFSET, pc=1, block=999, offset=2)
        assert a.key == b.key

    def test_pc_ignores_everything_but_pc(self):
        a = Event.from_trigger(EventKind.PC, pc=1, block=10, offset=2)
        b = Event.from_trigger(EventKind.PC, pc=1, block=999, offset=31)
        assert a.key == b.key

    def test_offset_only(self):
        a = Event.from_trigger(EventKind.OFFSET, pc=1, block=10, offset=2)
        b = Event.from_trigger(EventKind.OFFSET, pc=99, block=999, offset=2)
        assert a.key == b.key

    def test_kinds_never_collide_keys(self):
        keys = {
            Event.from_trigger(kind, pc=1, block=10, offset=2).key
            for kind in EventKind
        }
        assert len(keys) == len(list(EventKind))

    def test_extract_all_longest_first(self):
        events = extract_all(pc=1, block=10, offset=2)
        assert tuple(e.kind for e in events) == LONGEST_TO_SHORTEST


@given(
    pc=st.integers(min_value=0, max_value=2**48),
    block=st.integers(min_value=0, max_value=2**42),
    offset=st.integers(min_value=0, max_value=31),
)
def test_extraction_is_deterministic(pc, block, offset):
    for kind in EventKind:
        a = Event.from_trigger(kind, pc, block, offset)
        b = Event.from_trigger(kind, pc, block, offset)
        assert a == b


class TestPinnedKeys:
    """Event keys are table tags and set indices: a faster extraction
    must give the same values."""

    @pytest.mark.parametrize("kind, trigger_key, zero_key", [
        (EventKind.PC_ADDRESS, 0xACA248F85D73C35F, 0xB2A1C2FAA15AF59D),
        (EventKind.PC_OFFSET, 0x9E6C2B7BC574E197, 0xCC6693E2D1BC0FDB),
        (EventKind.PC, 0xB4C6542395EDAF5D, 0x69224172B415AEE9),
        (EventKind.ADDRESS, 0x98F3541FC4825784, 0x1598D843F1305142),
        (EventKind.OFFSET, 0x56F44548F1A5D47D, 0xDF6E3E6056A6B243),
    ])
    def test_from_trigger(self, kind, trigger_key, zero_key):
        assert Event.from_trigger(kind, 0x401A2C, 0x12345, 5).key == trigger_key
        assert Event.from_trigger(kind, 0, 0, 0).key == zero_key

    @pytest.mark.parametrize("pc, block, offset, set_index, long_key", [
        (0x401A2C, 0x12345, 5, 209, 0xACA248F85D73C35F),
        (0, 0, 0, 567, 0xB2A1C2FAA15AF59D),
        (0x7FFF1234, 2**40 + 31, 31, 293, 0x64C3939BEF3638BE),
        (1, 64, 0, 187, 0x1C2796282C578835),
    ])
    def test_history_table_index_and_tag(self, pc, block, offset, set_index,
                                         long_key):
        table = BingoHistoryTable()  # 16 K entries, 16 ways: 1,024 sets
        for _ in range(2):  # computed, then memoised
            assert table._set_index(pc, offset) == set_index
            assert table._long_key(pc, block, offset) == long_key

    def test_small_history_table_index(self):
        table = BingoHistoryTable(entries=64, ways=4)  # 16 sets
        assert table._set_index(0x401A2C, 5) == 3
        assert table._set_index(0, 0) == 12
