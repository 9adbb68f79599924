"""Adaptive experiments: spaces, schedules, and the halving end to end.

The end-to-end class is the acceptance test for :func:`run_halving`: a
client screens a 12-point space over two halving rounds before the
full-length rung, against a live service over real HTTP, and the
promoted full-length runs are provably *identical* — same digests, same
result fields, shared result-cache entries — to jobs built and
submitted directly.
"""

import threading
import time

import pytest

from repro.serve import (
    ExperimentSpace,
    HalvingSchedule,
    Objective,
    OrchestrationError,
    QuarantinedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SimulationService,
    job_from_wire,
    make_server,
    run_halving,
    space_from_wire,
)
from repro.sim.executor import Executor
from repro.sim.results import SimResult

#: shared base spec: tiny scaled workloads, uncompiled, experiment system
BASE = {
    "seed": 7,
    "scale": 0.02,
    "compile": False,
    "warmup": 500,
    "system": "experiment",
}

#: a one-point space and a two-rung schedule for the failure paths
ONE_POINT = ExperimentSpace(workloads=("streaming",), base=BASE)
SHORT = HalvingSchedule(screen_instructions=750, full_instructions=1500)


class TestObjective:
    def test_natural_directions(self):
        assert Objective("ipc").direction == "max"
        assert Objective("coverage").direction == "max"
        assert Objective("mpki").direction == "min"
        assert Objective("overprediction").direction == "min"

    def test_sort_key_orders_best_first(self):
        maximise = Objective("ipc")
        assert sorted([1.0, 3.0, 2.0], key=maximise.sort_key) == [3.0, 2.0, 1.0]
        minimise = Objective("mpki")
        assert sorted([1.0, 3.0, 2.0], key=minimise.sort_key) == [1.0, 2.0, 3.0]

    def test_cutoff_respects_direction(self):
        assert Objective("ipc").meets(5.0, cutoff=4.0)
        assert not Objective("ipc").meets(3.0, cutoff=4.0)
        assert Objective("mpki").meets(3.0, cutoff=4.0)
        assert not Objective("mpki").meets(5.0, cutoff=4.0)
        assert Objective("ipc").meets(0.0, cutoff=None)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            Objective("wattage")


class TestHalvingSchedule:
    def test_rungs_grow_geometrically_to_full(self):
        schedule = HalvingSchedule(
            screen_instructions=1000, full_instructions=8000, eta=2.0
        )
        assert schedule.rungs() == [1000, 2000, 4000, 8000]

    def test_last_rung_is_exactly_full(self):
        schedule = HalvingSchedule(
            screen_instructions=1000, full_instructions=5000, eta=2.0
        )
        assert schedule.rungs() == [1000, 2000, 4000, 5000]

    def test_degenerate_screen_equals_full(self):
        schedule = HalvingSchedule(
            screen_instructions=3000, full_instructions=3000
        )
        assert schedule.rungs() == [3000]

    def test_keep_fraction(self):
        schedule = HalvingSchedule(eta=2.0)
        assert schedule.keep(12) == 6
        assert schedule.keep(3) == 2  # ceil(3/2)
        assert schedule.keep(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            HalvingSchedule(eta=1.0)
        with pytest.raises(ValueError, match="full_instructions"):
            HalvingSchedule(screen_instructions=100, full_instructions=50)
        with pytest.raises(ValueError, match="screen_instructions"):
            HalvingSchedule(screen_instructions=0)


class TestExperimentSpace:
    def test_points_are_the_cartesian_product(self):
        space = ExperimentSpace(
            workloads=("streaming", "em3d"),
            prefetchers=("nextline",),
            knobs=(("degree", (1, 2, 3)),),
            base=BASE,
        )
        points = space.points()
        assert len(points) == 6
        assert points[0]["workload"] == "streaming"
        assert points[0]["prefetcher_kwargs"] == {"degree": 1}
        assert points[3]["workload"] == "em3d"
        assert points[5]["prefetcher_kwargs"] == {"degree": 3}

    def test_base_kwargs_merge_under_knobs(self):
        space = ExperimentSpace(
            workloads=("streaming",),
            prefetchers=("bingo",),
            knobs=(("vote_threshold", (0.2, 0.5)),),
            base={"prefetcher_kwargs": {"history_entries": 256}},
        )
        points = space.points()
        assert points[0]["prefetcher_kwargs"] == {
            "history_entries": 256,
            "vote_threshold": 0.2,
        }

    def test_base_must_not_own_axis_fields(self):
        for forbidden in ("workload", "prefetcher", "instructions"):
            with pytest.raises(ValueError, match=forbidden):
                ExperimentSpace(
                    workloads=("streaming",), base={forbidden: "x"}
                )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            ExperimentSpace(workloads=())
        with pytest.raises(ValueError, match="degree"):
            ExperimentSpace(
                workloads=("streaming",), knobs=(("degree", ()),)
            )


class TestWireParsers:
    def test_space_round_trip(self):
        space = space_from_wire(
            {
                "workloads": ["streaming"],
                "prefetchers": ["nextline", "bingo"],
                "knobs": {"degree": [1, 2]},
                "base": {"seed": 3},
            }
        )
        assert space.workloads == ("streaming",)
        assert space.prefetchers == ("nextline", "bingo")
        assert space.knobs == (("degree", (1, 2)),)
        assert len(space.points()) == 4

    def test_space_accepts_single_names(self):
        space = space_from_wire({"workloads": "streaming"})
        assert space.workloads == ("streaming",)
        assert space.prefetchers == ("bingo",), "default prefetcher"

    def test_space_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="knbos"):
            space_from_wire({"workloads": ["x"], "knbos": {}})


def serve_http(service):
    """Serve ``service`` over real HTTP on an ephemeral port.

    Returns ``(client, stop)``; ``stop()`` shuts the HTTP server down,
    as the daemon does after its drain.
    """
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(5.0)

    return ServiceClient(f"http://{host}:{port}", timeout=10.0), stop


@pytest.fixture
def live():
    """(service, client): two running worker slots behind real HTTP."""
    service = SimulationService(
        ServiceConfig(workers=2, job_timeout=60.0, cache_dir="")
    ).start()
    client, stop = serve_http(service)
    try:
        yield service, client
    finally:
        stop()
        service.drain(timeout=10.0)


@pytest.fixture
def idle():
    """(service, client): worker slots never started, so nothing runs."""
    service = SimulationService(ServiceConfig(workers=1, cache_dir=None))
    client, stop = serve_http(service)
    try:
        yield service, client
    finally:
        stop()
        service.drain(timeout=5.0)


class TestEndToEndHalving:
    """The acceptance test: 12 points, two screening rounds, then a
    full-length rung whose jobs are identical to direct submissions."""

    SPACE = ExperimentSpace(
        workloads=("streaming", "em3d"),
        prefetchers=("nextline",),
        knobs=(("degree", (1, 2, 3, 4, 5, 6)),),
        base=BASE,
    )
    SCHEDULE = HalvingSchedule(
        screen_instructions=750, full_instructions=3000, eta=2.0
    )
    OBJECTIVE = Objective("throughput")

    def run_search(self, client):
        return run_halving(
            client, self.SPACE, self.SCHEDULE, self.OBJECTIVE, timeout=120.0
        )

    def test_halving_promotes_screens_to_full_length(self, live):
        _, client = live
        search = self.run_search(client)
        rounds = search["rounds"]

        assert len(search["points"]) == 12
        # two short-trace screening rounds, then the full-length rung
        assert [r["instructions"] for r in rounds] == [750, 1500, 3000]
        assert [r["candidates"] for r in rounds] == [12, 6, 3]
        assert [r["final"] for r in rounds] == [False, False, True]

        # each round runs exactly the previous round's promotions
        for previous, current in zip(rounds, rounds[1:]):
            ran = {entry["point"] for entry in current["results"]}
            assert ran == set(previous["promoted"])
        assert len(rounds[-1]["promoted"]) == 1

        # one submission per candidate per rung
        assert client.metrics()["counters"]["submitted"] == 12 + 6 + 3

    def test_full_length_jobs_identical_to_direct_submissions(self, live):
        _, client = live
        search = self.run_search(client)

        final = search["rounds"][-1]
        for entry in final["results"]:
            direct = job_from_wire(
                dict(search["points"][entry["point"]], instructions=3000)
            )
            assert entry["digest"] == direct.digest(), (
                "the final rung must run the untouched full-length job"
            )
            # field-identical to a directly-executed SimJob
            served = client.status(entry["job_id"])["result"]
            direct_result = Executor(workers=1, cache=None).run_job(direct)
            assert served == direct_result.to_dict()

        # screens are *different* jobs (scaled budget => different digest)
        screen_digests = {
            entry["digest"] for entry in search["rounds"][0]["results"]
        }
        final_digests = {entry["digest"] for entry in final["results"]}
        assert screen_digests.isdisjoint(final_digests)

    def test_winner_matches_exhaustive_grid_argmax(self, live):
        _, client = live
        search = self.run_search(client)
        winner = search["winner"]
        hits_before = client.metrics()["executor_totals"].get("cache_hits", 0)

        # exhaustive: every point at full length, directly submitted
        full_jobs = [
            job_from_wire(dict(point, instructions=3000))
            for point in search["points"]
        ]
        scores = []
        for accepted in client.submit_many(full_jobs):
            record = client.wait(accepted["id"], timeout=120.0)
            assert record["state"] == "done", record["error"]
            result = SimResult.from_dict(record["result"])
            scores.append(self.OBJECTIVE.score(result))

        # the halving winner scores exactly the exhaustive-grid argmax
        # (score comparison, so co-optimal ties cannot flake the test)
        assert winner["score"] == pytest.approx(max(scores))
        assert winner["metric"] == "throughput"
        winner_direct = job_from_wire(
            dict(search["points"][winner["point"]], instructions=3000)
        )
        assert winner["digest"] == winner_direct.digest()
        assert winner["spec"] == client.status(winner["job_id"])["job"]

        # the rung already ran 3 of these 12 full-length jobs — the
        # shared ResultCache must answer the re-submissions
        hits_after = client.metrics()["executor_totals"].get("cache_hits", 0)
        assert hits_after - hits_before >= 3


class TestOrchestratorFailurePaths:
    def test_all_points_quarantined_fails_experiment(self, idle, monkeypatch):
        service, client = idle

        def refuse(job, priority=0):
            raise QuarantinedError("deadbeef" * 8, 30.0)

        monkeypatch.setattr(service, "submit", refuse)
        with pytest.raises(OrchestrationError, match="every candidate failed"):
            run_halving(client, ONE_POINT, SHORT, Objective())

    def test_quarantined_point_drops_out_of_its_round(self, live, monkeypatch):
        service, client = live
        submit = service.submit

        def refuse_degree_two(job, priority=0):
            if dict(job.prefetcher_kwargs)["degree"] == 2:
                raise QuarantinedError(job.digest(), 30.0)
            return submit(job, priority)

        monkeypatch.setattr(service, "submit", refuse_degree_two)
        space = ExperimentSpace(
            workloads=("streaming",),
            prefetchers=("nextline",),
            knobs=(("degree", (1, 2, 3)),),
            base=BASE,
        )
        search = run_halving(client, space, SHORT, Objective("throughput"))
        screen = search["rounds"][0]
        states = {entry["point"]: entry["state"] for entry in screen["results"]}
        assert states == {0: "done", 1: "quarantined", 2: "done"}
        assert screen["failed"] == 1
        assert search["winner"]["point"] in (0, 2)

    def test_drain_aborts_running_experiment(self):
        # worker slots never start: the screen's job stays pending, so
        # only the daemon's drain can end this search
        service = SimulationService(ServiceConfig(workers=1, cache_dir=None))
        client, stop = serve_http(service)
        outcome = {}

        def search():
            try:
                run_halving(client, ONE_POINT, SHORT, Objective(), timeout=60.0)
            except ServiceError as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=search)
        runner.start()
        try:
            deadline = time.monotonic() + 10.0
            while not service.queue.records() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.queue.records(), "the search never submitted"
        finally:
            # what SIGTERM does to the daemon: drain, then stop serving
            service.drain(timeout=5.0)
            stop()
            runner.join(15.0)
        assert not runner.is_alive(), "the search hung on a drained daemon"
        assert isinstance(outcome.get("error"), ServiceError)

    def test_search_on_drained_service_refused(self, idle):
        service, client = idle
        service.drain(timeout=1.0)
        with pytest.raises(ServiceError, match="draining") as excinfo:
            run_halving(client, ONE_POINT, SHORT, Objective())
        assert excinfo.value.status == 503

    def test_oversized_space_rejected(self, idle):
        _, client = idle
        huge = ExperimentSpace(
            workloads=("streaming",),
            knobs=(("degree", tuple(range(5000))),),
            base=BASE,
        )
        with pytest.raises(ValueError, match="points"):
            run_halving(client, huge, SHORT, Objective())
        assert client.jobs() == [], "nothing may be submitted"


def space_payload(**base):
    return {
        "workloads": ["streaming"],
        "prefetchers": ["none"],
        "base": dict(BASE, **base),
    }


class TestValidationBeforeSubmission:
    """A bad space fails before any of its jobs reaches the queue."""

    def search(self, client, payload):
        return run_halving(client, space_from_wire(payload), SHORT, Objective())

    def test_missing_space_rejected(self, idle):
        _, client = idle
        with pytest.raises(ValueError, match="'space' must be an object"):
            self.search(client, None)
        assert client.jobs() == []

    def test_malformed_space_rejected(self, idle):
        _, client = idle
        with pytest.raises(ValueError, match="workloads"):
            self.search(client, {"prefetchers": ["none"]})
        assert client.jobs() == []

    def test_base_owning_instructions_rejected(self, idle):
        _, client = idle
        with pytest.raises(ValueError, match="instructions"):
            self.search(client, space_payload(instructions=5000))
        assert client.jobs() == []

    def test_bad_base_spec_rejected(self, idle):
        _, client = idle
        with pytest.raises(ValueError, match="bogus_knob"):
            self.search(client, space_payload(bogus_knob=1))
        assert client.jobs() == []


class TestScreenJobs:
    def test_with_instructions_scales_warmup_proportionally(self):
        job = job_from_wire(dict(BASE, workload="streaming",
                                 prefetcher="nextline", instructions=3000))
        screen = job.with_instructions(750)
        assert screen.params.instructions_per_core == 750
        assert screen.params.warmup_instructions == 125  # 500 * 750/3000
        assert screen.digest() != job.digest()
        # everything else identical
        assert screen.spec()["workload"] == job.spec()["workload"]

    def test_with_instructions_explicit_warmup(self):
        job = job_from_wire(dict(BASE, workload="streaming",
                                 prefetcher="nextline", instructions=3000))
        screen = job.with_instructions(1000, warmup_instructions=10)
        assert screen.params.warmup_instructions == 10

    def test_with_instructions_clamps_warmup(self):
        job = job_from_wire(dict(BASE, workload="streaming",
                                 prefetcher="nextline", instructions=3000))
        tiny = job.with_instructions(2)
        assert 0 <= tiny.params.warmup_instructions < 2
