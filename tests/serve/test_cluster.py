"""Cluster coordinator + admission control units, on a fake clock.

Everything here runs against an *unstarted* frontend-only service
(``workers=0``): the queue, supervisor, and coordinator are live, but
no slot or reaper threads — time advances only when the test says so.
The full wire (HTTP, agents, subprocesses) is covered by
``test_cluster_e2e.py`` and ``tools/cluster_smoke.py``.
"""

import pytest

from repro.common.config import small_system
from repro.serve.cluster.coordinator import (
    MAX_LEASE_WAIT,
    AdmissionController,
    AdmissionError,
    NodeQuarantined,
    UnknownNodeError,
)
from repro.serve.jobs import (
    WIRE_VERSION,
    JobState,
    WireVersionMismatch,
    job_from_wire,
    job_to_wire,
)
from repro.serve.service import ServiceConfig, SimulationService
from repro.sim.executor import SimJob, execute_job


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_job(seed: int = 1) -> SimJob:
    return SimJob.build(
        "streaming",
        prefetcher="none",
        system=small_system(num_cores=4),
        instructions_per_core=1000,
        warmup_instructions=0,
        seed=seed,
        compile=False,
    )


@pytest.fixture(scope="module")
def result_one():
    """One real SimResult for make_job(seed=1), computed once."""
    return execute_job(make_job(seed=1))


@pytest.fixture
def cluster(tmp_path):
    clock = FakeClock()
    service = SimulationService(
        ServiceConfig(
            workers=0,
            cache_dir=str(tmp_path / "cache"),
            lease_ttl=10.0,
            breaker_threshold=3,
            breaker_cooldown=60.0,
        ),
        clock=clock,
    )
    return service, service.cluster, clock


class TestAdmissionController:
    def test_disabled_bound_admits_everything(self):
        admission = AdmissionController(max_depth=0, clock=FakeClock())
        assert admission.check(10_000) is None
        assert admission.rejected == 0

    def test_below_bound_admits(self):
        admission = AdmissionController(max_depth=5, clock=FakeClock())
        assert admission.check(4) is None

    def test_at_bound_rejects_with_clamped_retry(self):
        admission = AdmissionController(
            max_depth=5, min_retry=0.5, max_retry=30.0, clock=FakeClock()
        )
        retry = admission.check(5)
        assert retry is not None
        assert 0.5 <= retry <= 30.0
        assert admission.rejected == 1

    def test_retry_after_tracks_drain_rate(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_depth=10, window=10.0, clock=clock
        )
        for _ in range(20):  # 2 completions/second over the window
            admission.on_completion()
        assert admission.drain_rate() == pytest.approx(2.0)
        # 11 pending = 2 excess over a 10-bound -> excess/rate = 1s
        assert admission.check(11) == pytest.approx(1.0)

    def test_completions_age_out_of_the_window(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_depth=10, window=10.0, clock=clock
        )
        admission.on_completion()
        clock.advance(11.0)
        assert admission.drain_rate() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(window=0)
        with pytest.raises(ValueError):
            AdmissionController(min_retry=2.0, max_retry=1.0)


class TestWireVersion:
    def test_wire_format_carries_version(self):
        assert job_to_wire(make_job())["wire_version"] == WIRE_VERSION

    def test_roundtrip_accepts_matching_version(self):
        job = make_job()
        assert job_from_wire(job_to_wire(job)).digest() == job.digest()

    def test_absent_version_accepted(self):
        spec = job_to_wire(make_job())
        del spec["wire_version"]
        assert job_from_wire(spec).digest() == make_job().digest()

    def test_mismatch_rejected_loudly(self):
        spec = dict(job_to_wire(make_job()), wire_version=99)
        with pytest.raises(WireVersionMismatch) as excinfo:
            job_from_wire(spec)
        assert excinfo.value.theirs == 99
        assert excinfo.value.ours == WIRE_VERSION


class TestRegistry:
    def test_register_returns_cluster_parameters(self, cluster):
        _, coord, _ = cluster
        info = coord.register("w1", capacity=2)
        assert info["lease_ttl"] == 10.0
        assert info["cache_enabled"] is True

    def test_unregistered_node_rejected(self, cluster):
        _, coord, _ = cluster
        with pytest.raises(UnknownNodeError):
            coord.lease("ghost")
        with pytest.raises(UnknownNodeError):
            coord.heartbeat("ghost")

    def test_reregistration_updates_capacity(self, cluster):
        _, coord, _ = cluster
        coord.register("w1", capacity=1)
        coord.register("w1", capacity=4)
        assert coord.snapshot()["workers"]["w1"]["capacity"] == 4


class TestLeaseLifecycle:
    def test_lease_empty_queue_returns_none(self, cluster):
        _, coord, _ = cluster
        coord.register("w1")
        assert coord.lease("w1") is None

    def test_lease_wait_is_bounded(self, cluster):
        _, coord, _ = cluster
        coord.register("w1")
        # a fake clock never advances, so an unbounded wait would hang;
        # MAX_LEASE_WAIT only matters as the server-side clamp
        assert MAX_LEASE_WAIT <= 30.0

    def test_lease_report_done_roundtrip(self, cluster, result_one):
        service, coord, _ = cluster
        record, _ = service.submit(make_job(seed=1))
        lease = coord.lease("w1") if coord.register("w1") else None
        assert lease is not None
        assert lease["job_id"] == record.id
        assert lease["stolen"] is False
        # the leased wire job rebuilds to the identical digest
        assert job_from_wire(lease["job"]).digest() == record.digest
        assert record.state is JobState.RUNNING

        accepted = coord.report(
            "w1", lease["id"], record.id, result=result_one.to_dict()
        )
        assert accepted is True
        assert record.state is JobState.DONE
        assert record.result.to_dict() == result_one.to_dict()
        # the result was stored for cross-node dedup
        assert coord.cache_get(record.digest) == result_one.to_dict()

    def test_report_needs_exactly_one_outcome(self, cluster, result_one):
        service, coord, _ = cluster
        coord.register("w1")
        service.submit(make_job(seed=1))
        lease = coord.lease("w1")
        with pytest.raises(ValueError):
            coord.report("w1", lease["id"], lease["job_id"])
        with pytest.raises(ValueError):
            coord.report(
                "w1",
                lease["id"],
                lease["job_id"],
                result=result_one.to_dict(),
                failure={"kind": "error", "message": "both"},
            )

    def test_retryable_failure_requeues_gated(self, cluster):
        service, coord, clock = cluster
        coord.register("w1")
        record, _ = service.submit(make_job(seed=2))
        lease = coord.lease("w1")
        accepted = coord.report(
            "w1",
            lease["id"],
            record.id,
            failure={"kind": "worker-crash", "message": "boom"},
        )
        assert accepted is True
        assert record.state is JobState.PENDING
        assert record.not_before > clock()  # backoff-gated
        # the gated record is invisible to a plain lease...
        assert coord.lease("w1") is None

    def test_terminal_failure_fails_record(self, cluster):
        service, coord, _ = cluster
        coord.register("w1")
        record, _ = service.submit(make_job(seed=3))
        lease = coord.lease("w1")
        coord.report(
            "w1",
            lease["id"],
            record.id,
            failure={"kind": "error", "message": "deterministic"},
        )
        assert record.state is JobState.FAILED
        assert record.error["node"] == "w1"


class TestWorkStealing:
    def test_idle_peer_steals_gated_retry(self, cluster):
        service, coord, _ = cluster
        coord.register("w1")
        coord.register("w2")
        record, _ = service.submit(make_job(seed=2))
        lease = coord.lease("w1")
        coord.report(
            "w1",
            lease["id"],
            record.id,
            failure={"kind": "worker-crash", "message": "boom"},
        )
        # the node that failed it must not take it back early...
        assert coord.lease("w1") is None
        # ...but an idle healthy peer may
        stolen = coord.lease("w2")
        assert stolen is not None
        assert stolen["stolen"] is True
        assert stolen["job_id"] == record.id
        assert coord.snapshot()["steals"] == 1



class TestReportFailures:
    """A report the frontend cannot take in never strands its job."""

    @pytest.mark.parametrize(
        "outcome",
        [{"result": {"not": "a result"}}, {"failure": "not an object"}],
        ids=["malformed-result", "malformed-failure"],
    )
    def test_malformed_report_leaves_the_lease_to_expire(
        self, cluster, outcome
    ):
        service, coord, clock = cluster
        coord.register("w1")
        record, _ = service.submit(make_job(seed=6))
        lease = coord.lease("w1")
        with pytest.raises(ValueError):
            coord.report("w1", lease["id"], record.id, **outcome)
        assert record.state is JobState.RUNNING
        assert coord.snapshot()["leases_inflight"] == 1
        clock.advance(10.1)  # past lease_ttl
        assert coord.reap() == 1
        assert record.state is JobState.PENDING

    def test_store_error_still_resolves_the_job(
        self, cluster, result_one, monkeypatch
    ):
        service, coord, _ = cluster

        def disk_full(digest, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(coord.cache, "put", disk_full)
        coord.register("w1")
        record, _ = service.submit(make_job(seed=1))
        lease = coord.lease("w1")
        accepted = coord.report(
            "w1", lease["id"], record.id, result=result_one.to_dict()
        )
        assert accepted is True
        assert record.state is JobState.DONE
        assert record.result.to_dict() == result_one.to_dict()
        assert coord.stats.get("cache_put_errors") == 1
        assert coord.snapshot()["leases_inflight"] == 0

class TestLeaseExpiry:
    def test_expired_lease_reclaims_job(self, cluster):
        service, coord, clock = cluster
        coord.register("w1")
        record, _ = service.submit(make_job(seed=4))
        lease = coord.lease("w1")
        assert record.state is JobState.RUNNING
        clock.advance(10.1)  # past lease_ttl
        assert coord.reap() == 1
        # reclaimed through the ordinary retry path: pending + gated
        assert record.state is JobState.PENDING
        assert record.not_before > clock()
        # a report for the reclaimed lease is stale, not an error
        accepted = coord.report(
            "w1", lease["id"], record.id,
            failure={"kind": "error", "message": "late"},
        )
        assert accepted is False

    def test_heartbeat_renews_leases(self, cluster):
        service, coord, clock = cluster
        coord.register("w1")
        record, _ = service.submit(make_job(seed=5))
        lease = coord.lease("w1")
        clock.advance(8.0)
        assert coord.heartbeat("w1", inflight=1, leases=[lease["id"]]) == 1
        clock.advance(8.0)  # 16s since grant, 8s since renewal
        assert coord.reap() == 0
        assert record.state is JobState.RUNNING
        clock.advance(10.1)
        assert coord.reap() == 1

    def test_expiries_quarantine_the_node(self, cluster):
        service, coord, clock = cluster
        coord.register("w1")
        for seed in (11, 12, 13):
            service.submit(make_job(seed=seed))
        for _ in range(3):  # breaker_threshold
            assert coord.lease("w1") is not None
        clock.advance(10.1)
        assert coord.reap() == 3
        with pytest.raises(NodeQuarantined) as excinfo:
            coord.lease("w1")
        assert excinfo.value.retry_after > 0

    def test_attempt_budget_bounds_reclaims(self, cluster):
        service, coord, clock = cluster
        coord.register("w1")
        coord.register("w2")
        record, _ = service.submit(make_job(seed=6))
        # max_attempts=3 (default): three grants, three expiries -> failed
        for node in ("w1", "w2", "w1"):
            lease = coord.lease(node)
            assert lease is not None, f"no lease for attempt on {node}"
            clock.advance(10.1)
            coord.reap()
            # skip past the retry backoff so the next lease sees it
            clock.advance(60.0)
        assert record.state is JobState.FAILED
        assert record.attempts == 3


class TestAdmissionIntegration:
    def test_submit_rejected_beyond_depth_bound(self, tmp_path):
        clock = FakeClock()
        service = SimulationService(
            ServiceConfig(workers=0, cache_dir=None, max_queue_depth=2),
            clock=clock,
        )
        service.submit(make_job(seed=1))
        service.submit(make_job(seed=2))
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(make_job(seed=3))
        assert excinfo.value.retry_after > 0
        assert excinfo.value.depth == 2
        assert service.metrics()["admission"]["rejected"] == 1

    def test_dedup_bypasses_admission(self, tmp_path):
        clock = FakeClock()
        service = SimulationService(
            ServiceConfig(workers=0, cache_dir=None, max_queue_depth=2),
            clock=clock,
        )
        service.submit(make_job(seed=1))
        service.submit(make_job(seed=2))
        # identical to an in-flight digest: adds no work, admitted
        record, deduped = service.submit(make_job(seed=1))
        assert deduped is True


class TestSnapshot:
    def test_gauges_shape(self, cluster):
        service, coord, _ = cluster
        coord.register("w1")
        service.submit(make_job(seed=7))
        coord.lease("w1")
        snap = coord.snapshot()
        worker = snap["workers"]["w1"]
        assert worker["inflight"] == 1
        assert worker["leases"] == 1
        assert worker["heartbeat_age"] >= 0
        assert worker["alive"] is True
        assert snap["leases_inflight"] == 1
        assert snap["leases_granted"] == 1
        assert snap["steals"] == 0
        assert snap["admission_rejected"] == 0
