"""The batch executor: job specs, digests, the on-disk cache, fan-out."""

import json

import pytest

from repro.common.config import small_system
from repro.obs.config import ObservabilityConfig
from repro.sim.executor import (
    CACHE_SCHEMA,
    Executor,
    ResultCache,
    SimJob,
    default_cache_dir,
    execute_job,
)
from repro.sim.runner import compare_prefetchers, run_simulation
from repro.sim.sweep import sweep_prefetcher_parameter


def quick_job(prefetcher="nextline", **overrides):
    spec = dict(
        system=small_system(num_cores=4),
        instructions_per_core=2000,
        warmup_instructions=500,
        seed=7,
        scale=0.02,
        prefetcher_kwargs={"degree": 2} if prefetcher == "nextline" else None,
    )
    spec.update(overrides)
    return SimJob.build("streaming", prefetcher=prefetcher, **spec)


class TestSimJob:
    def test_digest_is_stable_across_instances(self):
        assert quick_job().digest() == quick_job().digest()

    def test_digest_distinguishes_every_spec_field(self):
        base = quick_job()
        variants = [
            quick_job(prefetcher="none", prefetcher_kwargs=None),
            quick_job(seed=8),
            quick_job(scale=0.03),
            quick_job(instructions_per_core=2500),
            quick_job(warmup_instructions=600),
            quick_job(prefetcher_kwargs={"degree": 3}),
            quick_job(system=small_system(num_cores=1)),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_spec_is_json_encodable(self):
        job = quick_job()
        encoded = json.dumps(job.spec(), sort_keys=True)
        assert "streaming" in encoded

    def test_kwarg_order_does_not_change_digest(self):
        a = quick_job(prefetcher_kwargs={"degree": 2, "some": 1})
        b = quick_job(prefetcher_kwargs={"some": 1, "degree": 2})
        assert a.digest() == b.digest()

    def test_execute_job_matches_run_simulation(self):
        job = quick_job()
        direct = run_simulation(
            "streaming",
            prefetcher="nextline",
            system=small_system(num_cores=4),
            instructions_per_core=2000,
            warmup_instructions=500,
            seed=7,
            scale=0.02,
            prefetcher_kwargs={"degree": 2},
        )
        assert execute_job(job).to_dict() == direct.to_dict()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        assert cache.load(job) is None
        result = execute_job(job)
        cache.store(job, result)
        assert cache.load(job).to_dict() == result.to_dict()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        cache.store(job, execute_job(job))
        cache.path_for(job.digest()).write_text("not json", encoding="utf-8")
        assert cache.load(job) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        cache.store(job, execute_job(job))
        path = cache.path_for(job.digest())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(job) is None

    def test_put_writes_json_dumps_of_the_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        result = execute_job(job).to_dict()
        path = cache.put(job.digest(), result)
        entry = {"schema": CACHE_SCHEMA, "digest": job.digest(), "result": result}
        assert path.read_bytes() == json.dumps(entry).encode("utf-8")

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"


class TestExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Executor(workers=0)

    def test_results_in_input_order(self):
        jobs = [quick_job(), quick_job(prefetcher="none", prefetcher_kwargs=None)]
        results = Executor(workers=1).run_jobs(jobs)
        assert [r.prefetcher for r in results] == ["nextline", "none"]

    def test_duplicate_jobs_execute_once(self, tmp_path):
        executor = Executor(workers=1, cache=ResultCache(tmp_path))
        results = executor.run_jobs([quick_job(), quick_job()])
        assert executor.stats.get("executed") == 1
        assert results[0].to_dict() == results[1].to_dict()

    def test_cache_hit_short_circuits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Executor(workers=1, cache=cache)
        first.run_job(quick_job())
        assert first.stats.get("cache_misses") == 1
        second = Executor(workers=1, cache=cache)
        second.run_job(quick_job())
        assert second.stats.get("cache_hits") == 1
        assert second.stats.get("executed") == 0

    def test_stats_count_jobs_and_time(self):
        executor = Executor(workers=1)
        executor.run_jobs([quick_job()])
        assert executor.stats.get("jobs") == 1
        assert executor.stats.get("executed") == 1
        assert executor.stats.get("run_seconds") > 0


class TestObservabilityCaching:
    """Traced jobs must never be served from cache: a cached SimResult
    cannot recreate the trace file the caller asked for."""

    def test_obs_config_changes_the_digest(self):
        plain = quick_job()
        timeline = quick_job(obs=ObservabilityConfig(timeline_interval=500))
        traced = quick_job(obs=ObservabilityConfig(trace_path="t.jsonl"))
        assert len({plain.digest(), timeline.digest(),
                    traced.digest()}) == 3

    def test_traced_job_is_not_cacheable(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        job = quick_job(obs=ObservabilityConfig(trace_path=str(trace)))
        assert not job.cacheable
        assert quick_job().cacheable

        cache = ResultCache(tmp_path / "cache")
        executor = Executor(workers=1, cache=cache)
        executor.run_job(job)
        assert trace.is_file()
        assert executor.stats.get("cache_skipped") == 1
        assert cache.load(job) is None  # never stored

        # rerunning must re-execute and rewrite the trace, not hit cache
        trace.unlink()
        again = Executor(workers=1, cache=cache)
        again.run_job(job)
        assert trace.is_file() and trace.stat().st_size > 0
        assert again.stats.get("executed") == 1
        assert again.stats.get("cache_hits") == 0

    def test_timeline_job_caches_with_samples_intact(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job(obs=ObservabilityConfig(timeline_interval=1000))
        assert job.cacheable

        first = Executor(workers=1, cache=cache)
        live = first.run_job(job)
        assert live.timeline, "timeline job produced no samples"

        second = Executor(workers=1, cache=cache)
        cached = second.run_job(job)
        assert second.stats.get("cache_hits") == 1
        assert cached.timeline == live.timeline
        assert cached.timeline_curves() == live.timeline_curves()


class TestParallelEntryPoints:
    def test_sweep_parallel_matches_serial(self):
        kwargs = dict(
            prefetcher="nextline",
            parameter="degree",
            values=[1, 2],
            system=small_system(num_cores=4),
            instructions_per_core=2000,
            warmup_instructions=0,
            seed=5,
            scale=0.02,
        )
        serial = sweep_prefetcher_parameter("streaming", **kwargs)
        parallel = sweep_prefetcher_parameter("streaming", workers=2, **kwargs)
        assert {k: v.to_dict() for k, v in serial.items()} == {
            k: v.to_dict() for k, v in parallel.items()
        }

    def test_compare_parallel_matches_serial(self):
        kwargs = dict(
            system=small_system(num_cores=4),
            instructions_per_core=2000,
            warmup_instructions=500,
            scale=0.02,
        )
        serial = compare_prefetchers("streaming", ["nextline"], **kwargs)
        parallel = compare_prefetchers(
            "streaming", ["nextline"], workers=2, **kwargs
        )
        assert set(serial) == set(parallel) == {"none", "nextline"}
        assert {k: v.to_dict() for k, v in serial.items()} == {
            k: v.to_dict() for k, v in parallel.items()
        }


class TestCheckedExecution:
    def test_check_mode_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        executor = Executor(workers=1, cache=cache, check=True)
        result = executor.run_jobs([job])[0]
        assert executor.stats.get("cache_skipped") == 1
        assert executor.stats.get("cache_hits") == 0
        assert executor.stats.get("executed") == 1
        # neither read from nor written to: a checked run proves nothing
        # about uncached replays
        assert not cache.path_for(job.digest()).exists()
        # checking rides the event stream; the result itself is untouched
        assert result.to_dict() == execute_job(job).to_dict()

    def test_prior_cache_entry_is_not_served_in_check_mode(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        Executor(workers=1, cache=cache).run_jobs([job])  # populate
        executor = Executor(workers=1, cache=cache, check=True)
        executor.run_jobs([job])
        assert executor.stats.get("cache_hits") == 0
        assert executor.stats.get("executed") == 1

    def test_checked_run_with_bingo_passes_invariants(self):
        from repro.sim.executor import execute_job_checked

        job = quick_job(prefetcher="bingo", prefetcher_kwargs=None)
        result = execute_job_checked(job)  # strict: raises on violation
        assert result.demand_accesses > 0
