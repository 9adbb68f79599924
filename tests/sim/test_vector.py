"""The engine's fast loop: equality with the general loop, eligibility.

The fast loop's one non-negotiable property: it changes *nothing* about
a run except its speed.  Every test here holds it to field-for-field
``SimResult`` equality against the general loop, which replays the same
compiled trace and (by default) the source generators too — across the
full prefetcher zoo, miss-dense stress workloads, and runs with and
without an LLC replacement-policy interface.  Both loops service every
L1 miss through the one ``MemoryHierarchy.l1_miss``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_system
from repro.experiments.common import PAPER_PREFETCHERS
from repro.memsys.replacement import available_replacements
from repro.obs.sinks import RecordingSink
from repro.prefetchers.registry import available_prefetchers
from repro.sim.compile import compile_workload
from repro.sim.engine import (
    SimulationEngine,
    SimulationParams,
    engine_tier_counters,
)
from repro.sim.executor import SimJob, execute_job
from repro.workloads.registry import (
    STRESS_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    make_workload,
)

SCALE = 0.02


def run_loops(
    workload="streaming",
    prefetcher="bingo",
    instructions=3000,
    warmup=500,
    seed=7,
    scale=SCALE,
    replacement="lru",
    with_generator=True,
):
    """Run one configuration on both loops; return the SimResult dicts.

    ``fast`` is the fast loop over the compiled trace, ``general`` the
    general loop over the same trace, ``generator`` the general loop
    over the source generators.
    """
    system = small_system(num_cores=4)
    params = SimulationParams(
        instructions_per_core=instructions, warmup_instructions=warmup
    )
    source = make_workload(workload, seed=seed, scale=scale)
    compiled = compile_workload(source, records_per_core=instructions)
    out = {}
    if with_generator:
        out["generator"] = SimulationEngine(
            source, prefetcher, system, params, replacement=replacement
        ).run().to_dict()
    out["general"] = SimulationEngine(
        compiled, prefetcher, system, params, vectorized=False,
        replacement=replacement,
    ).run().to_dict()
    engine = SimulationEngine(
        compiled, prefetcher, system, params, replacement=replacement
    )
    assert engine._fast_path_eligible()
    out["fast"] = engine.run().to_dict()
    return out


class TestThreeTierEquivalence:
    """Fast loop == general loop over the compiled trace == general loop
    over the generators."""

    @pytest.mark.parametrize(
        "prefetcher", ["none", *PAPER_PREFETCHERS]
    )
    def test_zoo_equal_field_for_field(self, prefetcher):
        """Fast == general == generator for every prefetcher."""
        runs = run_loops(prefetcher=prefetcher)
        assert runs["fast"] == runs["general"] == runs["generator"]

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_NAMES)[:4])
    def test_across_workloads(self, workload):
        runs = run_loops(workload=workload, instructions=2000, warmup=400)
        assert runs["fast"] == runs["general"] == runs["generator"]

    def test_zero_warmup(self):
        runs = run_loops(instructions=1500, warmup=0)
        assert runs["fast"] == runs["general"] == runs["generator"]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(["none", "bingo", "sms", "bop"]),
    instructions=st.integers(min_value=400, max_value=2500),
    warmup_fraction=st.floats(min_value=0.0, max_value=0.45),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_property_three_tier_equality(
    workload, prefetcher, instructions, warmup_fraction, seed
):
    """Any (workload, prefetcher, budget, seed) point: both loops agree."""
    warmup = int(instructions * warmup_fraction)
    runs = run_loops(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        warmup=warmup,
        seed=seed,
    )
    assert runs["fast"] == runs["general"] == runs["generator"]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(STRESS_WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(["none", "bingo"]),
    instructions=st.integers(min_value=1200, max_value=3200),
    replacement=st.sampled_from(["lru", "arc"]),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_property_hazard_heavy_equality(
    workload, prefetcher, instructions, replacement, seed
):
    """Ordering-hazard-heavy draws: miss-dense stress workloads, where
    nearly every record is a barrier and cores contend for the same LLC
    sets and DRAM banks, so any slip in the global barrier order shows.
    ``replacement`` runs the LLC with (``arc``) or without (``lru``) a
    policy interface; ``prefetcher`` toggles training at the barrier."""
    runs = run_loops(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        warmup=instructions // 5,
        seed=seed,
        replacement=replacement,
    )
    assert runs["fast"] == runs["general"] == runs["generator"]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(WORKLOAD_NAMES + STRESS_WORKLOAD_NAMES)),
    prefetcher=st.sampled_from(available_prefetchers()),
    replacement=st.sampled_from(available_replacements()),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_property_traced_loops_emit_equal_streams(
    workload, prefetcher, replacement, seed
):
    """A trace sink keeps the fast loop: at any (workload, prefetcher,
    LLC policy, seed) point both loops emit the same event stream and
    give the same ``SimResult``."""
    system = small_system(num_cores=4)
    params = SimulationParams(instructions_per_core=1500, warmup_instructions=300)
    compiled = compile_workload(
        make_workload(workload, seed=seed, scale=SCALE), records_per_core=1500
    )
    runs = {}
    for vectorized in (True, False):
        sink = RecordingSink()
        engine = SimulationEngine(
            compiled, prefetcher, system, params, sink=sink,
            vectorized=vectorized, replacement=replacement,
        )
        assert engine._fast_path_eligible() == vectorized
        result = engine.run().to_dict()
        runs[vectorized] = ([event.to_dict() for event in sink.events], result)
    assert runs[True] == runs[False]


class TestMissDenseStaysVectorized:
    """Miss-dense stress workloads run the fast loop and stay equal."""

    @pytest.mark.parametrize("workload", ["zipf", "oscillate"])
    @pytest.mark.parametrize("prefetcher", ["none", "bingo"])
    def test_stress_matrix_stays_and_matches(self, workload, prefetcher):
        before = engine_tier_counters()
        runs = run_loops(
            workload=workload,
            prefetcher=prefetcher,
            instructions=4000,
            warmup=800,
            with_generator=False,
        )
        after = engine_tier_counters()
        assert runs["fast"] == runs["general"]
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["demoted"] == before["demoted"]
        # the equality covers the MSHR stall and merge paths only if
        # misses stalled and merged
        memsys = runs["fast"]["raw_stats"]["memsys"]
        for event in ("stalls", "merges"):
            assert sum(
                group["mshr"].get(event, 0)
                for name, group in memsys.items()
                if name.startswith("l1d")
            ) > 0, event

    @pytest.mark.usefixtures("lru_interface")
    def test_demotion_reasons_are_counted(self):
        """A miss-dense trace under an LLC policy interface (``arc``,
        ``lru-interface``) runs the fast loop, equal to the general loop,
        and is counted once under ``demoted_ineligible_policy``: the
        counter names are historical, the miss tail is the same.  Native
        ``lru`` (no policy interface) counts nothing."""
        for replacement, expected in (
            ("lru-interface", 1), ("arc", 1), ("lru", 0)
        ):
            before = engine_tier_counters()
            runs = run_loops(
                workload="zipf",
                prefetcher="none",
                instructions=2000,
                warmup=300,
                replacement=replacement,
                with_generator=False,
            )
            after = engine_tier_counters()
            assert runs["fast"] == runs["general"], replacement
            assert after["vectorized"] == before["vectorized"] + 1
            assert after["demoted"] == before["demoted"] + expected
            assert (
                after["demoted_ineligible_policy"]
                == before["demoted_ineligible_policy"] + expected
            ), replacement


class TestOneMissTail:
    """Both loops reach the LLC only through ``MemoryHierarchy.l1_miss``."""

    @pytest.mark.parametrize("replacement", ["lru", "arc"])
    def test_every_l1_miss_calls_the_hierarchy(self, replacement):
        """One ``l1_miss`` call per L1D miss on the fast loop, and the
        wrapped run equals the unwrapped one: a miss tail copied back
        into the fast loop would make no calls."""
        runs = run_loops(
            workload="zipf",
            prefetcher="bingo",
            instructions=2000,
            warmup=300,
            replacement=replacement,
            with_generator=False,
        )
        system = small_system(num_cores=4)
        params = SimulationParams(2000, 300)
        compiled = compile_workload(
            make_workload("zipf", seed=7, scale=SCALE), records_per_core=2000
        )
        engine = SimulationEngine(
            compiled, "bingo", system, params, replacement=replacement
        )
        assert engine._fast_path_eligible()
        real_miss = engine.hierarchy.l1_miss
        calls = 0

        def counted_miss(*args):
            nonlocal calls
            calls += 1
            return real_miss(*args)

        engine.hierarchy.l1_miss = counted_miss
        wrapped = engine.run().to_dict()
        misses = sum(
            group["misses"]
            for name, group in wrapped["raw_stats"]["memsys"].items()
            if name.startswith("l1d")
        )
        assert misses > 0
        assert calls == misses
        assert wrapped == runs["fast"] == runs["general"]


class TestEligibilityAndFallback:
    def test_vector_path_actually_engages(self):
        """Guard against the fast loop silently never running."""
        before = engine_tier_counters()["vectorized"]
        runs = run_loops(instructions=800, warmup=100, with_generator=False)
        assert engine_tier_counters()["vectorized"] == before + 1
        assert runs["fast"] == runs["general"]

    def test_disabled_flag_runs_general_loop(self):
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        compiled = compile_workload(
            make_workload("streaming", seed=7, scale=SCALE),
            records_per_core=800,
        )
        engine = SimulationEngine(
            compiled, "bingo", system, params, vectorized=False
        )
        assert not engine._fast_path_eligible()
        before = engine_tier_counters()
        engine.run()
        after = engine_tier_counters()
        assert after["general"] == before["general"] + 1
        assert after["vectorized"] == before["vectorized"]

    def test_l1_training_prefetcher_is_ineligible(self):
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        compiled = compile_workload(
            make_workload("streaming", seed=7, scale=SCALE),
            records_per_core=800,
        )
        engine = SimulationEngine(
            compiled, "bingo", system, params, train_at="l1", vectorized=True
        )
        assert not engine._fast_path_eligible()

    def test_generator_workload_is_ineligible(self):
        system = small_system(num_cores=4)
        params = SimulationParams(800, 100)
        source = make_workload("streaming", seed=7, scale=SCALE)
        engine = SimulationEngine(
            source, "bingo", system, params, vectorized=True
        )
        assert not engine._fast_path_eligible()


class TestJobIntegration:
    def job(self, vectorized, **overrides):
        spec = dict(
            system=small_system(num_cores=4),
            instructions_per_core=1500,
            warmup_instructions=300,
            seed=7,
            scale=SCALE,
        )
        spec.update(overrides)
        job = SimJob.build("streaming", prefetcher="bingo", **spec)
        return replace(job, vectorized=vectorized)

    def test_execute_job_matches_across_flag(self):
        """``vectorized=False`` runs the general loop: same result."""
        assert (
            execute_job(self.job(True)).to_dict()
            == execute_job(self.job(False)).to_dict()
        )

    def test_vectorized_flag_changes_the_digest(self):
        assert self.job(True).digest() != self.job(False).digest()

    def test_vector_version_is_folded_into_the_digest(self, monkeypatch):
        import repro.sim.executor as executor_mod

        digest = self.job(True).digest()
        monkeypatch.setattr(executor_mod, "VECTOR_VERSION", 999)
        assert self.job(True).digest() != digest

    def test_differential_harness_green_over_vector_path(self):
        from repro.check import run_check

        report = run_check(
            "streaming",
            prefetcher="bingo",
            instructions_per_core=2000,
            warmup_instructions=300,
            seed=11,
            scale=SCALE,
        )
        assert report.ok, report.summary()
