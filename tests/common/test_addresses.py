"""Address arithmetic: decomposition, reconstruction, validation."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.common.addresses import AddressMap


class TestConstruction:
    def test_defaults_match_paper(self):
        amap = AddressMap()
        assert amap.block_size == 64
        assert amap.region_size == 2048
        assert amap.page_size == 4096
        assert amap.blocks_per_region == 32
        assert amap.blocks_per_page == 64

    @pytest.mark.parametrize("block_size", [0, -64, 63, 96])
    def test_rejects_non_power_of_two_block(self, block_size):
        with pytest.raises(ValueError):
            AddressMap(block_size=block_size)

    def test_rejects_region_smaller_than_block(self):
        with pytest.raises(ValueError):
            AddressMap(block_size=128, region_size=64)

    def test_rejects_page_smaller_than_block(self):
        with pytest.raises(ValueError):
            AddressMap(block_size=128, page_size=64, region_size=128)

    def test_bits_are_logs(self):
        amap = AddressMap()
        assert amap.block_bits == 6
        assert amap.region_bits == 11
        assert amap.page_bits == 12

    @pytest.mark.parametrize("block, region, page", [
        (64, 2048, 4096), (32, 32, 8192), (128, 16384, 4096), (1, 1, 1),
    ])
    def test_derived_geometry(self, block, region, page):
        amap = AddressMap(block_size=block, region_size=region, page_size=page)
        assert amap.block_bits == block.bit_length() - 1
        assert amap.region_bits == region.bit_length() - 1
        assert amap.page_bits == page.bit_length() - 1
        assert amap.region_of_block(12345) == 12345 // (region // block)
        assert amap.offset_of_block(12345) == 12345 % (region // block)


class TestIdentity:
    """Job digests hash the map through ``asdict``: the cached geometry
    must stay invisible to it, to equality and to pickling."""

    def test_asdict_has_exactly_the_three_sizes(self):
        assert dataclasses.asdict(AddressMap()) == {
            "block_size": 64, "region_size": 2048, "page_size": 4096,
        }

    def test_equality_and_hash_by_sizes(self):
        assert AddressMap() == AddressMap(64, 2048, 4096)
        assert hash(AddressMap()) == hash(AddressMap(64, 2048, 4096))
        assert AddressMap() != AddressMap(region_size=4096)

    def test_pickle_round_trip(self):
        amap = AddressMap(region_size=4096)
        back = pickle.loads(pickle.dumps(amap))
        assert back == amap
        assert back.region_bits == 12
        assert back.offset_of_block(65) == 1

    def test_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AddressMap().block_bits = 7


class TestBlockDecomposition:
    def test_block_number_strips_offset(self, amap):
        assert amap.block_number(0) == 0
        assert amap.block_number(63) == 0
        assert amap.block_number(64) == 1
        assert amap.block_number(64 * 7 + 13) == 7

    def test_block_address_aligns_down(self, amap):
        assert amap.block_address(130) == 128
        assert amap.block_address(128) == 128


class TestRegionDecomposition:
    def test_region_number(self, amap):
        assert amap.region_number(0) == 0
        assert amap.region_number(2047) == 0
        assert amap.region_number(2048) == 1

    def test_region_offset_is_block_index(self, amap):
        assert amap.region_offset(0) == 0
        assert amap.region_offset(64) == 1
        assert amap.region_offset(2048 + 64 * 5 + 3) == 5

    def test_region_base(self, amap):
        assert amap.region_base(5000) == 4096

    def test_region_of_block_matches_region_number(self, amap):
        address = 0x1234_5678
        block = amap.block_number(address)
        assert amap.region_of_block(block) == amap.region_number(address)

    def test_offset_of_block_matches_region_offset(self, amap):
        address = 0x1234_5678
        block = amap.block_number(address)
        assert amap.offset_of_block(block) == amap.region_offset(address)


class TestReconstruction:
    def test_block_of_roundtrip(self, amap):
        region = 1234
        for offset in (0, 1, 31):
            block = amap.block_of(region, offset)
            assert amap.region_of_block(block) == region
            assert amap.offset_of_block(block) == offset

    def test_address_of_is_block_aligned(self, amap):
        address = amap.address_of(7, 3)
        assert address == 7 * 2048 + 3 * 64

    @pytest.mark.parametrize("offset", [-1, 32, 100])
    def test_block_of_rejects_bad_offset(self, amap, offset):
        with pytest.raises(ValueError):
            amap.block_of(0, offset)


class TestPageDecomposition:
    def test_page_number_and_offset(self, amap):
        assert amap.page_number(4096) == 1
        assert amap.page_offset(4096 + 17) == 17


@given(address=st.integers(min_value=0, max_value=2**48 - 1))
def test_decomposition_is_consistent(address):
    """Region/offset decomposition always reconstructs the block."""
    amap = AddressMap()
    block = amap.block_number(address)
    region = amap.region_of_block(block)
    offset = amap.offset_of_block(block)
    assert amap.block_of(region, offset) == block
    assert 0 <= offset < amap.blocks_per_region


@given(address=st.integers(min_value=0, max_value=2**48 - 1))
def test_region_is_within_page(address):
    """Regions never straddle OS pages (region_size <= page_size)."""
    amap = AddressMap()
    assert amap.page_number(address) == amap.page_number(amap.region_base(address))
