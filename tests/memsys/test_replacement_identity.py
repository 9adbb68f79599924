"""Replacement wiring: loop identity, digests, wire format, refusals.

The refactor's non-negotiable: routing LRU through the policy interface
(``lru-interface``) must change *nothing* — field-for-field ``SimResult``
equality against the native fast path, on both engine loops.  And since
the LLC is the only policy-bearing level and both loops send every L1
miss through the same ``MemoryHierarchy.l1_miss``, every registry
policy must be loop-transparent too.
"""

from __future__ import annotations

import pytest

from repro.common.config import small_system
from repro.memsys.replacement import available_replacements
from repro.sim.compile import compile_workload
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.sim.executor import SimJob, execute_job
from repro.workloads.registry import make_workload

SCALE = 0.05

# every registered policy, plus native LRU forced through the interface
POLICIES = sorted([*available_replacements(), "lru-interface"])

pytestmark = pytest.mark.usefixtures("lru_interface")


def run_tiers(replacement, instructions=2500, warmup=400, seed=7):
    """One configuration on both loops; SimResult dicts by leg.

    ``generator`` and ``compiled`` are the general loop over the source
    generators and over the compiled trace; ``vectorized`` is the fast
    loop over the compiled trace.
    """
    system = small_system(num_cores=4)
    params = SimulationParams(
        instructions_per_core=instructions, warmup_instructions=warmup
    )
    source = make_workload("streaming", seed=seed, scale=SCALE)
    compiled = compile_workload(source, records_per_core=instructions)
    out = {
        "generator": SimulationEngine(
            source, "bingo", system, params, replacement=replacement
        ).run().to_dict(),
        "compiled": SimulationEngine(
            compiled, "bingo", system, params, vectorized=False,
            replacement=replacement,
        ).run().to_dict(),
    }
    engine = SimulationEngine(
        compiled, "bingo", system, params, vectorized=True,
        replacement=replacement,
    )
    assert engine._fast_path_eligible()
    out["vectorized"] = engine.run().to_dict()
    return out


class TestLruInterfaceByteIdentity:
    """The golden regression: goldens were recorded on native LRU, so
    lru == lru-interface == every golden, with goldens untouched."""

    def test_interface_lru_identical_to_native_all_tiers(self):
        native = run_tiers("lru")
        routed = run_tiers("lru-interface")
        for tier in ("generator", "compiled", "vectorized"):
            assert routed[tier] == native[tier], tier

    def test_native_lru_tiers_agree(self):
        tiers = run_tiers("lru")
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


@pytest.mark.parametrize("replacement", POLICIES)
class TestTierTransparency:
    def test_policy_identical_across_tiers(self, replacement):
        """LLC policy choice must be invisible to the loop choice."""
        tiers = run_tiers(replacement, instructions=1500, warmup=300)
        assert tiers["vectorized"] == tiers["compiled"] == tiers["generator"]


class TestOptPlumbing:
    """The simulator has no OPT: ``opt`` is refused like any unknown
    name (the exact Belady lives in ``tests/memsys/replay_harness.py``)."""

    def test_unknown_replacement_rejected_by_engine(self):
        system = small_system(num_cores=4)
        for name in ("mru", "opt"):
            with pytest.raises(ValueError, match="unknown replacement"):
                SimulationEngine(
                    make_workload("streaming", scale=SCALE),
                    "none",
                    system,
                    SimulationParams(800, 100),
                    replacement=name,
                )


class TestJobSurface:
    def job(self, replacement, **overrides):
        spec = dict(
            system=small_system(num_cores=4),
            instructions_per_core=1200,
            warmup_instructions=200,
            seed=7,
            scale=SCALE,
            replacement=replacement,
        )
        spec.update(overrides)
        return SimJob.build("streaming", prefetcher="bingo", **spec)

    def test_replacement_changes_the_digest(self):
        """Cached results must never cross a policy boundary."""
        digests = {self.job(name).digest() for name in POLICIES}
        assert len(digests) == len(POLICIES)

    def test_replacement_in_spec(self):
        assert self.job("arc").spec()["replacement"] == "arc"
        assert self.job("lru").spec()["replacement"] == "lru"

    def test_default_is_lru(self):
        job = SimJob.build(
            "streaming", instructions_per_core=100, warmup_instructions=0
        )
        assert job.replacement == "lru"

    def test_execute_job_respects_replacement(self):
        lru = execute_job(self.job("lru")).to_dict()
        iface = execute_job(self.job("lru-interface")).to_dict()
        assert lru == iface

    def test_wire_round_trip_carries_replacement(self):
        from repro.serve.jobs import job_from_wire, job_to_wire

        job = self.job("2q")
        wire = job_to_wire(job)
        assert wire["replacement"] == "2q"
        rebuilt = job_from_wire(wire)
        assert rebuilt.replacement == "2q"
        assert rebuilt.digest() == job.digest()

    def test_wire_default_is_lru(self):
        from repro.serve.jobs import job_from_wire

        job = job_from_wire({"workload": "streaming"})
        assert job.replacement == "lru"


class TestDifferentialHarness:
    def test_check_green_under_interface_lru(self):
        from repro.check import run_check

        report = run_check(
            "streaming",
            prefetcher="bingo",
            instructions_per_core=2000,
            warmup_instructions=300,
            seed=11,
            scale=SCALE,
            replacement="lru-interface",
        )
        assert report.ok, report.summary()

    def test_check_green_under_arc(self):
        """The reference LLC mirrors residency from the event stream, so
        the differential harness holds for any policy — prove it on the
        most stateful one."""
        from repro.check import run_check

        report = run_check(
            "streaming",
            prefetcher="bingo",
            instructions_per_core=2000,
            warmup_instructions=300,
            seed=11,
            scale=SCALE,
            replacement="arc",
        )
        assert report.ok, report.summary()
