"""Access-pattern primitives: structure, determinism, flags."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import TraceRecord
from repro.workloads import primitives as prim


def take(generator, n):
    return list(itertools.islice(generator, n))


def mem_records(records):
    return [r for r in records if r.is_mem]


#: around every power of two up to 2**17, where the draw width changes
SHUFFLE_LENGTHS = sorted(
    {0, 1, 2}
    | {length for j in range(1, 18) for length in (2**j - 1, 2**j, 2**j + 1)}
)


class TestExactDraws:
    """The set-up helpers draw exactly what ``random.Random`` draws, and
    leave its state where ``random`` would: every pointer-chase pool,
    Zipf placement and replay sequence depends on it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from(SHUFFLE_LENGTHS))
    def test_shuffle_matches_random(self, seed, length):
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = list(range(length))
        theirs.shuffle(expected)
        assert prim.shuffle(ours, list(range(length))) == expected
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(
            st.integers(1, 2**20), st.sampled_from([2**j for j in range(21)])
        ),
        count=st.integers(0, 500),
    )
    def test_randbelow_matches_randrange(self, seed, n, count):
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = [theirs.randrange(n) for _ in range(count)]
        assert prim.randbelow(ours, n, count) == expected
        assert ours.getstate() == theirs.getstate()

    def test_randbelow_refuses_an_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            prim.randbelow(random.Random(0), 0, 1)


class TestComputeGap:
    def test_emits_exact_count(self):
        records = list(prim.compute_gap(pc=5, count=3))
        assert len(records) == 3
        assert all(not r.is_mem and r.pc == 5 for r in records)


class TestSequentialStream:
    def test_addresses_advance_by_stride(self):
        gen = prim.sequential_stream(random.Random(0), pc=1, base=0,
                                     size_bytes=1024, gap=0)
        addresses = [r.address for r in take(gen, 5)]
        assert addresses == [0, 64, 128, 192, 256]

    def test_wraps_at_size(self):
        gen = prim.sequential_stream(random.Random(0), pc=1, base=0,
                                     size_bytes=128, gap=0)
        addresses = [r.address for r in take(gen, 4)]
        assert addresses == [0, 64, 0, 64]

    def test_gap_interleaves_compute(self):
        gen = prim.sequential_stream(random.Random(0), pc=1, base=0,
                                     size_bytes=1024, gap=2)
        records = take(gen, 6)
        assert [r.is_mem for r in records] == [True, False, False] * 2


class TestInterleavedStreams:
    def test_round_robin_bursts(self):
        gen = prim.interleaved_streams(random.Random(0), pc=1, base=0,
                                       num_streams=2, stream_size_bytes=4096,
                                       burst_blocks=2, gap=0)
        addresses = [r.address for r in take(gen, 6)]
        assert addresses == [0, 64, 4096, 4160, 128, 192]


class TestPointerChase:
    def test_loads_are_dependent(self):
        gen = prim.pointer_chase(random.Random(0), pc=1, base=0, num_nodes=64,
                                 gap=0)
        records = mem_records(take(gen, 20))
        assert all(r.depends_on_prev_load for r in records)

    def test_addresses_within_pool(self):
        gen = prim.pointer_chase(random.Random(0), pc=1, base=0, num_nodes=64,
                                 node_bytes=64, gap=0)
        assert all(0 <= r.address < 64 * 64 for r in mem_records(take(gen, 100)))

    def test_extra_fields_touch_same_node(self):
        gen = prim.pointer_chase(random.Random(0), pc=1, base=0, num_nodes=64,
                                 node_bytes=64, gap=0, extra_fields=2)
        records = mem_records(take(gen, 9))
        node_addr = records[0].address
        assert records[1].address == node_addr + 8
        assert records[2].address == node_addr + 16

    def test_run_locality_produces_adjacent_nodes(self):
        gen = prim.pointer_chase(random.Random(0), pc=1, base=0,
                                 num_nodes=1024, gap=0, run_locality=0.99)
        records = mem_records(take(gen, 200))
        deltas = [b.address - a.address for a, b in zip(records, records[1:])]
        assert deltas.count(64) > len(deltas) * 0.8

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            next(prim.pointer_chase(random.Random(0), pc=1, base=0,
                                    num_nodes=4, run_locality=1.0))


class TestRecordLookup:
    LAYOUTS = [(0, 64, 192), (0, 128, 256)]

    def test_fields_follow_layout(self):
        gen = prim.record_lookup(random.Random(0), pc_base=0x100, base=0,
                                 num_records=16, record_bytes=2048,
                                 layouts=self.LAYOUTS, gap=0)
        records = mem_records(take(gen, 3))
        record_base = records[0].address
        layout = self.LAYOUTS[(record_base // 2048) % 2]
        assert [r.address - record_base for r in records] == list(layout)

    def test_field_pcs_are_distinct_sites(self):
        gen = prim.record_lookup(random.Random(0), pc_base=0x100, base=0,
                                 num_records=16, record_bytes=2048,
                                 layouts=self.LAYOUTS, gap=0)
        records = mem_records(take(gen, 3))
        assert [r.pc for r in records] == [0x100, 0x101, 0x102]

    def test_later_fields_depend_on_header(self):
        gen = prim.record_lookup(random.Random(0), pc_base=0x100, base=0,
                                 num_records=16, record_bytes=2048,
                                 layouts=self.LAYOUTS, gap=0)
        records = mem_records(take(gen, 3))
        assert not records[0].depends_on_prev_load
        assert all(r.depends_on_prev_load for r in records[1:])

    def test_empty_layouts_rejected(self):
        with pytest.raises(ValueError):
            next(prim.record_lookup(random.Random(0), pc_base=1, base=0,
                                    num_records=4, record_bytes=2048,
                                    layouts=[]))


class TestHotCold:
    def test_distinct_sites_for_hot_and_cold(self):
        gen = prim.hot_cold(random.Random(0), pc=0x500, hot_base=0,
                            hot_bytes=4096, cold_base=1 << 20,
                            cold_bytes=1 << 20, hot_probability=0.5, gap=0)
        records = mem_records(take(gen, 400))
        hot_pcs = {r.pc for r in records if r.address < 4096}
        cold_pcs = {r.pc for r in records if r.address >= 1 << 20}
        assert hot_pcs == {0x500}
        assert cold_pcs == {0x508}


class TestTemporalLoop:
    def test_sequence_repeats_exactly(self):
        gen = prim.temporal_loop(random.Random(0), pc=1, base=0,
                                 footprint_bytes=1 << 20, sequence_length=10,
                                 gap=0)
        first = [r.address for r in mem_records(take(gen, 10))]
        second = [r.address for r in mem_records(take(gen, 10))]
        assert first == second

    def test_dependent_flag(self):
        gen = prim.temporal_loop(random.Random(0), pc=1, base=0,
                                 footprint_bytes=1 << 20, sequence_length=10,
                                 gap=0, dependent=True)
        assert all(r.depends_on_prev_load for r in mem_records(take(gen, 10)))


class TestGraphSweep:
    def test_node_walk_is_sequential_and_dependent(self):
        gen = prim.graph_sweep(random.Random(0), pc_base=0x700, base=0,
                               num_nodes=128, gap=0, degree=0)
        records = mem_records(take(gen, 6))
        assert [r.address for r in records] == [i * 64 for i in range(6)]
        assert all(r.depends_on_prev_load for r in records)

    def test_edges_read_the_partner_array(self):
        gen = prim.graph_sweep(random.Random(0), pc_base=0x700, base=0,
                               num_nodes=128, gap=0, degree=2,
                               partner_base=1 << 20)
        records = mem_records(take(gen, 30))
        edges = [r for r in records if r.pc != 0x700]
        assert edges
        assert all(r.address >= 1 << 20 for r in edges)

    def test_remote_and_local_edges_have_distinct_pcs(self):
        gen = prim.graph_sweep(random.Random(0), pc_base=0x700, base=0,
                               num_nodes=4096, gap=0, degree=1,
                               remote_fraction=0.5, span_nodes=4)
        records = mem_records(take(gen, 4000))
        edge_pcs = {r.pc for r in records if r.pc != 0x700}
        assert 0x700 + 1 in edge_pcs  # local path
        assert 0x700 + 16 in edge_pcs  # remote path


class TestIndirectGather:
    def test_data_load_depends_on_index_load(self):
        gen = prim.indirect_gather(random.Random(0), pc_base=0x600,
                                   index_base=0, data_base=1 << 20,
                                   index_entries=1024, data_bytes=1 << 20,
                                   gap=0)
        records = mem_records(take(gen, 4))
        assert not records[0].depends_on_prev_load  # index: sequential
        assert records[1].depends_on_prev_load  # data: steered by index


class TestMix:
    def test_chunked_switching(self):
        a = prim.sequential_stream(random.Random(0), pc=1, base=0,
                                   size_bytes=1 << 20, gap=0)
        b = prim.sequential_stream(random.Random(0), pc=2, base=1 << 24,
                                   size_bytes=1 << 20, gap=0)
        gen = prim.mix(random.Random(0), [a, b], weights=[0.5, 0.5], chunk=4)
        records = take(gen, 40)
        # PCs change only at chunk boundaries.
        for i in range(0, 40, 4):
            assert len({r.pc for r in records[i:i + 4]}) == 1

    def test_weight_validation(self):
        gen = prim.sequential_stream(random.Random(0), pc=1, base=0,
                                     size_bytes=1024)
        with pytest.raises(ValueError):
            next(prim.mix(random.Random(0), [gen], weights=[1.0, 1.0]))
        with pytest.raises(ValueError):
            next(prim.mix(random.Random(0), [], weights=[]))
        with pytest.raises(ValueError):
            next(prim.mix(random.Random(0), [gen], weights=[0.0]))
