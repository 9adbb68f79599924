"""The runtime invariant checker, fed fabricated hierarchies and events."""

import pickle

import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.common.stats import StatGroup
from repro.experiments.common import EXPERIMENT_SCALE, experiment_system
from repro.memsys.mshr import MshrFile
from repro.obs.events import DemandHit, DemandMiss, Eviction
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.workloads.registry import make_workload


class FakeHierarchy:
    """Just enough surface for the checker: stats tree, MSHRs, clock."""

    def __init__(self):
        self.stats = StatGroup("memsys")
        self.l1_mshrs = []
        self.prefetchers = []
        self._now = 0.0


def hit(covered=False, late=False):
    return DemandHit(
        time=0.0, core_id=0, pc=0x400, block=1, covered=covered, late=late
    )


def miss():
    return DemandMiss(time=0.0, core_id=0, pc=0x400, block=1)


class TestCounterChecks:
    def test_consistent_counters_pass(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_misses")
        checker.emit(miss())
        llc.add("demand_accesses")
        llc.add("demand_hits")
        checker.emit(hit())
        assert checker.finalize() is None
        assert not checker.violations
        assert checker.checks_run >= 2

    def test_conservation_violation_is_caught(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses", 2)  # one access never classified
        llc.add("demand_hits")
        checker.emit(hit())
        assert any("conservation" in v for v in checker.violations)

    def test_event_stream_must_rederive_live_counters(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_misses")
        checker.emit(hit())  # the event says hit, the counter says miss
        assert any("demand_hits" in v for v in checker.violations)

    def test_covered_and_late_flow_through(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("covered")
        llc.add("late_covered")
        checker.emit(hit(covered=True, late=True))
        assert checker.finalize() is None


class TestStructuralChecks:
    def test_mshr_over_occupancy_is_caught(self):
        checker = InvariantChecker(interval=1)
        fake = FakeHierarchy()
        mshr = MshrFile(entries=1)
        mshr.commit(1, finish=100.0)
        mshr.commit(2, finish=200.0)  # two occupied entries in a 1-entry file
        fake.l1_mshrs = [mshr]
        fake._now = 50.0
        checker.attach(fake)
        llc = fake.stats.child("llc")
        llc.add("demand_accesses")
        llc.add("demand_hits")
        checker.emit(hit())
        assert any("MSHR occupancy" in v for v in checker.violations)

    def test_eviction_counter_checked_at_finalize(self):
        checker = InvariantChecker()
        fake = FakeHierarchy()
        checker.attach(fake)
        checker.emit(Eviction(cache="llc", block=1, prefetched=False, used=True))
        error = checker.finalize()  # live counters never saw an eviction
        assert error is not None
        assert any("evictions" in v for v in error.violations)


class TestStrictness:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_strict_finalize_raises(self):
        checker = InvariantChecker(strict=True)
        fake = FakeHierarchy()
        checker.attach(fake)
        fake.stats.child("llc").add("demand_accesses")
        checker.emit(hit())  # hits counter still 0: inconsistent
        with pytest.raises(InvariantViolation) as excinfo:
            checker.finalize()
        assert excinfo.value.violations

    def test_unattached_checker_only_tallies(self):
        checker = InvariantChecker()
        checker.emit(hit())
        checker.emit(miss())
        assert checker.finalize() is None
        assert checker.checks_run == 0


class TestPickling:
    """A ``check=True`` job that fails in a fanned-out worker sends its
    exception back through a pipe."""

    def test_round_trip_keeps_type_message_and_violations(self):
        exc = InvariantViolation(["llc counters drifted", "mshr over-full"])
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is InvariantViolation
        assert str(back) == str(exc)
        assert back.violations == exc.violations

    def test_crosses_a_worker_pipe_as_itself(self):
        from repro.sim.executor import _portable

        exc = InvariantViolation(["llc counters drifted"])
        assert _portable(exc) is exc


def _oscillate_run(checker=None):
    """A miss-dense general-loop run, with ``checker`` riding it if given."""
    engine = SimulationEngine(
        make_workload("oscillate", scale=EXPERIMENT_SCALE),
        "none",
        experiment_system(),
        SimulationParams(instructions_per_core=6000, warmup_instructions=1500),
        sink=checker,
        vectorized=False,
    )
    if checker is not None:
        checker.attach(engine.hierarchy)
    result = engine.run().to_dict()
    if checker is not None:
        assert checker.finalize() is None
    return result


class TestObservationDoesNotPerturb:
    """Regression: the structural sweep probed MSHR occupancy at the
    hierarchy's global clock, and the probe expired every miss finished
    by then — misses a core running behind that clock would still have
    merged or stalled behind.  A checked run changed ``mshr.stalls`` and
    ``dram.queue_cycles``; it must be the run it checks."""

    @pytest.fixture(scope="class")
    def unobserved(self):
        return _oscillate_run()

    def test_sweeping_every_event_leaves_the_run_unchanged(self, unobserved):
        assert _oscillate_run(InvariantChecker(interval=1)) == unobserved

    def test_default_interval_leaves_the_run_unchanged(self, unobserved):
        assert _oscillate_run(InvariantChecker()) == unobserved
