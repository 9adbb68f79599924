"""Hash mixing: determinism, range, sensitivity."""

import pytest
from hypothesis import given, strategies as st

from repro.common.hashing import combine, fold, mix64


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_stays_in_64_bits(self):
        assert 0 <= mix64(2**70) < 2**64

    def test_avalanche_on_small_change(self):
        a = mix64(1)
        b = mix64(2)
        differing = bin(a ^ b).count("1")
        assert differing > 16  # strong mixers flip ~half the bits


class TestCombine:
    def test_order_sensitive(self):
        assert combine(1, 2) != combine(2, 1)

    def test_arity_sensitive(self):
        assert combine(1) != combine(1, 0)

    def test_deterministic(self):
        assert combine(3, 4, 5) == combine(3, 4, 5)


class TestFold:
    @pytest.mark.parametrize("bits", [1, 4, 10, 16])
    def test_range(self, bits):
        for value in (0, 1, 2**40, 2**63):
            assert 0 <= fold(value, bits) < 2**bits

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            fold(1, 0)

    def test_strided_keys_spread(self):
        """The motivating case: strided addresses must not all collide."""
        indices = {fold(base * 32, 6) for base in range(1000)}
        assert len(indices) == 64  # all 64 buckets used


@given(value=st.integers(min_value=0, max_value=2**64 - 1),
       bits=st.integers(min_value=1, max_value=32))
def test_fold_in_range(value, bits):
    assert 0 <= fold(value, bits) < 2**bits


@given(values=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1,
                       max_size=5))
def test_combine_deterministic(values):
    assert combine(*values) == combine(*values)


class TestPinnedValues:
    """Every table index and tag in the simulator derives from these
    functions: a faster implementation must return the same values."""

    @pytest.mark.parametrize("value, expected", [
        (0, 0x0),
        (1, 0x5692161D100B05E5),
        (12345, 0xF36CF1164265DD51),
        (2**64 - 1, 0xB4D055FCF2CBBD7B),
        (2**70 + 3, 0x1E535EEDE31428F0),
        (-1, 0xB4D055FCF2CBBD7B),
    ])
    def test_mix64(self, value, expected):
        assert mix64(value) == expected

    @pytest.mark.parametrize("values, expected", [
        ((), 0x9E3779B97F4A7C15),
        ((1,), 0x07776F161BD8EA27),
        ((1, 2), 0x4C69D360191D0546),
        ((2, 1), 0xE290CD73BE22B707),
        ((3, 4, 5), 0x23D3C93D4A0078CB),
        ((2**64 + 7, -5), 0x7AD6342F829D7E1D),
    ])
    def test_combine(self, values, expected):
        assert combine(*values) == expected

    _FOLD_INPUTS = (0, 1, 0xDEADBEEF, -1, -12345, 2**64, 2**64 + 12345,
                    2**100 - 1)

    @pytest.mark.parametrize("bits, expected", [
        (1, (0, 1, 1, 1, 1, 0, 1, 1)),
        (2, (0, 2, 1, 1, 2, 0, 1, 1)),
        (3, (0, 4, 7, 4, 1, 0, 7, 4)),
        (6, (0, 13, 56, 4, 8, 0, 56, 4)),
        (10, (0, 487, 301, 545, 13, 0, 124, 545)),
        (64, (0, 6238072747940578789, 5622224078331092714,
              13029008266876403067, 2837801380094764310, 0,
              17540659726606785873, 13029008266876403067)),
        (70, (0, 6238072747940578789, 5622224078331092714,
              13029008266876403067, 2837801380094764310, 0,
              17540659726606785873, 13029008266876403067)),
    ])
    def test_fold(self, bits, expected):
        assert tuple(fold(v, bits) for v in self._FOLD_INPUTS) == expected


def _fold_by_chunks(value: int, bits: int) -> int:
    """The plain definition of ``fold``: XOR of the hash's ``bits``-wide
    chunks, walked one chunk at a time."""
    value = mix64(value)
    result = 0
    while value:
        result ^= value & ((1 << bits) - 1)
        value >>= bits
    return result


@given(value=st.integers(min_value=-2**80, max_value=2**80),
       bits=st.integers(min_value=1, max_value=80))
def test_fold_equals_the_chunk_walk(value, bits):
    assert fold(value, bits) == _fold_by_chunks(value, bits)
