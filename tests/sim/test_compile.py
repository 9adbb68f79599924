"""The compiled trace pipeline: packing, caching, replay equivalence.

The pipeline's one non-negotiable property is that compiling changes
*nothing* about a run except its speed: compiled streams replay the
source generators record-for-record, and the engine's specialised fast
path produces ``SimResult``\\ s equal field-for-field to the general
loop's.  Everything here enforces that property from a different angle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_system
from repro.cpu.trace import TraceRecord
from repro.obs.sinks import RecordingSink
from repro.sim.compile import (
    CompiledWorkload,
    TraceCache,
    compile_counters,
    compile_workload,
    pack_records,
    trace_key,
)
from repro.sim.compile import workload as compiled_module
from repro.sim.compile.cache import key_digest
from repro.sim.executor import Executor, SimJob, execute_job
from repro.sim.runner import run_simulation
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

SCALE = 0.02


def quick_job(compile=True, prefetcher="bingo", vectorized=True, **overrides):
    spec = dict(
        system=small_system(num_cores=4),
        instructions_per_core=3000,
        warmup_instructions=500,
        seed=7,
        scale=SCALE,
    )
    spec.update(overrides)
    job = SimJob.build("streaming", prefetcher=prefetcher, **spec)
    return replace(job, compile=compile, vectorized=vectorized)


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


class TestPacking:
    def test_pack_decode_round_trip(self):
        records = [
            TraceRecord.compute(pc=0x400),
            TraceRecord.load(pc=0x404, address=0xDEAD40),
            TraceRecord.load(pc=0x408, address=0xBEEF00,
                             depends_on_prev_load=True),
            TraceRecord.store(pc=0x40C, address=0xC0FFEE),
            TraceRecord(pc=(1 << 64) - 1, address=(1 << 64) - 1, is_mem=True),
        ]
        packed = pack_records(iter(records), len(records))
        assert list(packed.decode()) == records

    def test_short_stream_raises(self):
        with pytest.raises(ValueError, match="ended after 1"):
            pack_records(iter([TraceRecord.compute(pc=1)]), 2)

    def test_oversized_word_raises(self):
        record = TraceRecord.load(pc=1 << 64, address=0)
        with pytest.raises(ValueError, match="64-bit"):
            pack_records(iter([record]), 1)

    def test_bad_word_is_named_before_a_short_stream(self):
        records = [TraceRecord.compute(pc=1), TraceRecord.load(pc=2, address=-64)]
        with pytest.raises(ValueError, match="^record 1: pc=0x2 address=-0x40"):
            pack_records(iter(records), 5)

    def test_only_memory_records_carry_flags(self):
        stray = TraceRecord(pc=1, is_write=True, depends_on_prev_load=True)
        assert pack_records(iter([stray]), 1).flags == b"\x00"


# ---------------------------------------------------------------------------
# CompiledWorkload: the Workload contract
# ---------------------------------------------------------------------------


class TestCompiledWorkload:
    def test_satisfies_workload_contract(self):
        source = make_workload("streaming", seed=9, scale=SCALE)
        compiled = compile_workload(source, records_per_core=200)
        assert compiled.name == source.name
        assert compiled.num_cores == source.num_cores
        assert compiled.seed == source.seed
        assert compiled.records_per_core == 200

    def test_exhausted_stream_raises_with_length(self):
        source = make_workload("streaming", seed=9, scale=SCALE)
        compiled = compile_workload(source, records_per_core=50)
        stream = compiled.core_stream(0)
        for _ in range(50):
            next(stream)
        with pytest.raises(RuntimeError, match="50 records"):
            next(stream)

    def test_unknown_core_raises(self):
        source = make_workload("streaming", seed=9, scale=SCALE)
        compiled = compile_workload(source, records_per_core=10)
        with pytest.raises(ValueError, match="no stream for core"):
            next(compiled.core_stream(99))

    def test_recompiling_a_compiled_workload_is_identity(self):
        source = make_workload("streaming", seed=9, scale=SCALE)
        compiled = compile_workload(source, records_per_core=50)
        assert compile_workload(compiled, records_per_core=30) is compiled
        with pytest.raises(ValueError, match="already compiled"):
            compile_workload(compiled, records_per_core=60)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(WORKLOAD_NAMES),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_compiled_stream_replays_generator_exactly(name, seed):
    """Property: for every registered workload, the compiled stream is
    record-for-record the source generator's output on every core."""
    source = make_workload(name, seed=seed, scale=SCALE)
    compiled = compile_workload(source, records_per_core=300)
    for core_id in range(source.num_cores):
        expected = list(islice(source.core_stream(core_id), 300))
        replayed = list(islice(compiled.core_stream(core_id), 300))
        assert replayed == expected


# ---------------------------------------------------------------------------
# The on-disk trace cache
# ---------------------------------------------------------------------------


class TestTraceCache:
    def test_store_load_round_trip(self, tmp_path):
        source = make_workload("em3d", seed=3, scale=SCALE)
        cache = TraceCache(tmp_path)
        compiled = compile_workload(
            source, records_per_core=120, scale=SCALE, cache=cache
        )
        key = trace_key(source.name, source.seed, SCALE,
                        source.num_cores, 120)
        digest = key_digest(key)
        assert cache.path_for(digest).is_file()
        arenas = cache.load(digest, key)
        assert arenas is not None
        for core_id, arena in enumerate(arenas):
            assert list(arena.decode()) == list(
                islice(compiled.core_stream(core_id), 120)
            )

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        source = make_workload("em3d", seed=3, scale=SCALE)
        cache = TraceCache(tmp_path)
        compile_workload(source, records_per_core=60, scale=SCALE, cache=cache)
        key = trace_key(source.name, source.seed, SCALE,
                        source.num_cores, 60)
        other = dict(key, scale=0.5)
        assert cache.load(key_digest(key), other) is None

    def test_torn_file_reads_as_miss(self, tmp_path):
        # fresh seed: a trace identity compiled by an earlier test would
        # be served from the in-process memo and never hit this cache
        source = make_workload("em3d", seed=11, scale=SCALE)
        cache = TraceCache(tmp_path)
        compile_workload(source, records_per_core=60, scale=SCALE, cache=cache)
        key = trace_key(source.name, source.seed, SCALE,
                        source.num_cores, 60)
        digest = key_digest(key)
        path = cache.path_for(digest)
        path.write_bytes(path.read_bytes()[:100])
        assert cache.load(digest, key) is None

    def test_second_compile_hits(self, tmp_path):
        source = make_workload("zeus", seed=5, scale=SCALE)
        cache = TraceCache(tmp_path)
        before = compile_counters()
        compile_workload(source, records_per_core=80, scale=SCALE, cache=cache)
        compile_workload(source, records_per_core=80, scale=SCALE, cache=cache)
        after = compile_counters()
        assert after["trace_compile_misses"] - before["trace_compile_misses"] == 1
        assert after["trace_compile_hits"] - before["trace_compile_hits"] == 1

    def test_memo_keeps_the_most_recently_used_identities(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(compiled_module, "_MEMO", OrderedDict())
        limit = compiled_module.MEMO_ENTRIES
        cache = TraceCache(tmp_path)
        sources = [
            make_workload("streaming", seed=seed, scale=SCALE)
            for seed in range(limit + 1)
        ]

        def compile_one(source):
            compile_workload(source, records_per_core=16, scale=SCALE,
                             cache=cache)

        def digest_of(source):
            return key_digest(trace_key(source.name, source.seed, SCALE,
                                        source.num_cores, 16))

        for source in sources[:limit]:
            compile_one(source)
        compile_one(sources[0])  # a memo hit makes it the most recent
        compile_one(sources[limit])
        memo = compiled_module._MEMO
        assert len(memo) == limit
        assert digest_of(sources[0]) in memo
        assert digest_of(sources[1]) not in memo, "LRU entry not evicted"

        before = compile_counters()
        compile_one(sources[1])
        after = compile_counters()
        assert after["trace_compile_hits"] - before["trace_compile_hits"] == 1
        assert after["trace_compile_misses"] == before["trace_compile_misses"]
        assert digest_of(sources[1]) in memo
        assert len(memo) == limit

    def test_scale_none_stays_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        source = make_workload("zeus", seed=5, scale=SCALE)
        compile_workload(source, records_per_core=40)  # no scale: no identity
        assert not (tmp_path / "traces").exists()


# ---------------------------------------------------------------------------
# Engine fast loop vs general loop
# ---------------------------------------------------------------------------


class TestFastPathEquivalence:
    @pytest.mark.parametrize("prefetcher", ["none", "bingo", "sms", "bop", "spp"])
    def test_simresults_equal_field_for_field(self, prefetcher):
        """Regression gate: the fast loop over the compiled trace ==
        the general loop over the same trace == the general loop over
        the generators."""
        compiled = execute_job(quick_job(True, prefetcher))
        general = execute_job(quick_job(True, prefetcher, vectorized=False))
        generator = execute_job(quick_job(False, prefetcher))
        assert compiled.to_dict() == general.to_dict() == generator.to_dict()

    def test_fast_path_actually_engages(self):
        """Guard against silently falling back to the general loop."""
        from repro.sim.engine import SimulationEngine, SimulationParams

        source = make_workload("streaming", seed=7, scale=SCALE)
        compiled = compile_workload(source, records_per_core=1000)
        engine = SimulationEngine(
            workload=compiled,
            prefetcher="bingo",
            system=small_system(num_cores=4),
            params=SimulationParams(
                instructions_per_core=1000, warmup_instructions=100
            ),
        )
        assert engine._fast_path_eligible()
        engine._run_until = None  # the fast loop must never touch it
        engine.run()

    def test_sink_keeps_fast_path_and_replays_compiled_stream(self):
        """With a sink attached the compiled trace still takes the fast
        loop — and the recorded event stream must match the generator
        path's (general loop) exactly."""
        from repro.sim.engine import SimulationEngine, SimulationParams

        def record(workload, fast) -> list:
            sink = RecordingSink(limit=500)
            engine = SimulationEngine(
                workload=workload,
                prefetcher="bingo",
                system=small_system(num_cores=4),
                params=SimulationParams(
                    instructions_per_core=800, warmup_instructions=0
                ),
                sink=sink,
            )
            assert engine._fast_path_eligible() == fast
            if fast:
                engine._run_until = None  # the fast loop must never touch it
            engine.run()
            return [event.to_dict() for event in sink.events]

        source = make_workload("streaming", seed=7, scale=SCALE)
        compiled = compile_workload(source, records_per_core=800)
        assert record(compiled, fast=True) == record(source, fast=False)

    def test_short_trace_falls_back_to_general_loop(self):
        from repro.sim.engine import SimulationEngine, SimulationParams

        source = make_workload("streaming", seed=7, scale=SCALE)
        compiled = compile_workload(source, records_per_core=500)
        engine = SimulationEngine(
            workload=compiled,
            prefetcher="none",
            system=small_system(num_cores=4),
            params=SimulationParams(
                instructions_per_core=800, warmup_instructions=0
            ),
        )
        assert not engine._fast_path_eligible()

    def test_timeline_runs_general_loop_with_identical_samples(self):
        job = quick_job(True)
        from repro.obs.config import ObservabilityConfig

        obs = ObservabilityConfig(timeline_interval=1000)
        compiled = execute_job(replace(job, obs=obs))
        generator = execute_job(replace(job, obs=obs, compile=False))
        assert compiled.timeline == generator.timeline
        assert compiled.to_dict() == generator.to_dict()

    def test_run_simulation_compile_flag_matches(self):
        """``run_simulation`` always compiles; it matches the generator
        path of the same job."""
        kwargs = dict(
            prefetcher="bingo",
            system=small_system(num_cores=4),
            instructions_per_core=2000,
            warmup_instructions=400,
            seed=7,
            scale=SCALE,
        )
        compiled = run_simulation("streaming", **kwargs)
        generator = execute_job(
            replace(SimJob.build("streaming", **kwargs), compile=False)
        )
        assert compiled.to_dict() == generator.to_dict()


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_compile_flag_changes_the_digest(self):
        assert quick_job(True).digest() != quick_job(False).digest()

    def test_sweep_shares_one_compiled_trace(self, tmp_path, monkeypatch):
        """The second job of a same-workload sweep must hit the
        compiled-trace cache (the `trace_compile_hits` criterion)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        executor = Executor(workers=1)
        # fresh seed so no earlier test has memoised this trace identity
        jobs = [quick_job(True, "none", seed=424242),
                quick_job(True, "bingo", seed=424242),
                quick_job(True, "sms", seed=424242)]
        results = executor.run_jobs(jobs)
        assert len(results) == 3
        assert executor.stats.get("trace_compile_misses") == 1
        assert executor.stats.get("trace_compile_hits") == 2

    def test_checked_execution_accepts_compiled_jobs(self):
        from repro.sim.executor import execute_job_checked

        result = execute_job_checked(quick_job(True))
        assert result.to_dict() == execute_job(quick_job(False)).to_dict()

    def test_differential_check_green_over_compiled_path(self):
        from repro.check import run_check

        report = run_check(
            "streaming",
            prefetcher="bingo",
            instructions_per_core=3000,
            warmup_instructions=500,
        )
        assert report.ok, report.summary()
