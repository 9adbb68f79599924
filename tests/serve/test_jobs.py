"""Wire format and job records: the JSON boundary of the service."""

import dataclasses
import json
import tracemalloc

import pytest

from repro.common.config import SystemConfig, small_system
from repro.obs.config import ObservabilityConfig
from repro.sim.executor import SimJob, execute_job
from repro.serve.jobs import (
    JobRecord,
    JobState,
    job_from_wire,
    job_to_wire,
    new_job_id,
)


def wire_spec(**overrides):
    spec = {
        "workload": "streaming",
        "prefetcher": "none",
        "instructions": 1500,
        "warmup": 0,
        "seed": 7,
        "scale": 0.02,
        "system": dataclasses.asdict(small_system(num_cores=4)),
    }
    spec.update(overrides)
    return spec


class TestWireFormat:
    def test_round_trip_preserves_digest(self):
        job = job_from_wire(wire_spec())
        again = job_from_wire(job_to_wire(job))
        assert again.digest() == job.digest()
        assert again == job

    def test_every_field_off_its_default_round_trips(self):
        """Wire and drain/restore give back the same job, digest and all."""
        job = SimJob.build(
            "em3d",
            prefetcher="bingo",
            system=small_system(num_cores=4),
            instructions_per_core=3000,
            warmup_instructions=500,
            seed=5,
            scale=0.05,
            prefetcher_kwargs={"short_match_policy": "most_recent"},
            train_at="l1",
            obs=ObservabilityConfig(timeline_interval=500),
            replacement="fifo",
        )
        defaults = SimJob.build("streaming")
        for name in ("train_at", "replacement", "prefetcher_kwargs", "obs",
                     "system"):
            assert getattr(job, name) != getattr(defaults, name), name
        wired = job_from_wire(json.loads(json.dumps(job_to_wire(job))))
        assert wired == job
        assert wired.digest() == job.digest()
        record = JobRecord(job=job)
        restored = JobRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert restored.job == job
        assert restored.digest == record.digest == job.digest()

    @pytest.mark.parametrize("flag", ["compile", "vectorized"])
    def test_loop_switches_are_unknown_fields(self, flag):
        """No spec picks the generator path or the general loop."""
        for value in (False, True):
            with pytest.raises(ValueError, match="unknown job field"):
                job_from_wire(wire_spec(**{flag: value}))

    def test_custom_system_round_trips(self):
        custom = dataclasses.replace(
            small_system(num_cores=4), physical_pages=1 << 16
        )
        job = job_from_wire(wire_spec(system=dataclasses.asdict(custom)))
        assert job.system == custom
        assert isinstance(job.system, SystemConfig)

    def test_experiment_preset(self):
        from repro.experiments.common import experiment_system

        job = job_from_wire(
            {"workload": "streaming", "system": "experiment"}
        )
        assert job.system == experiment_system()

    def test_defaults_match_simjob_build(self):
        job = job_from_wire({"workload": "streaming"})
        built = SimJob.build("streaming")
        assert job.digest() == built.digest()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job field"):
            job_from_wire(wire_spec(instrucciones=5))

    def test_unknown_nested_system_field_rejected(self):
        system = dataclasses.asdict(small_system(num_cores=1))
        system["turbo"] = True
        with pytest.raises(ValueError, match="unknown SystemConfig field"):
            job_from_wire(wire_spec(system=system))

    def test_missing_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            job_from_wire({"prefetcher": "bingo"})

    def test_names_resolve_as_the_run_resolves_them(self, fault_workloads):
        """Case-insensitive names and workloads added with
        ``register_workload`` are runnable, so they parse."""
        one_core = dataclasses.asdict(small_system(num_cores=1))
        job = job_from_wire(
            wire_spec(workload="raise_always", prefetcher="BINGO", system=one_core)
        )
        assert (job.workload, job.prefetcher) == ("raise_always", "BINGO")
        assert job_from_wire(wire_spec(workload="EM3D")).workload == "EM3D"

    def test_non_object_spec_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            job_from_wire(["streaming"])

    def test_trace_path_rejected(self):
        with pytest.raises(ValueError, match="trace_path"):
            job_from_wire(
                wire_spec(obs={"trace_path": "/tmp/evil.jsonl"})
            )

    def test_bad_system_value_rejected(self):
        with pytest.raises(ValueError, match="'system'"):
            job_from_wire(wire_spec(system="production"))

    def test_prefetcher_kwargs_are_bound_not_built(self):
        """The frontend binds ``prefetcher_kwargs`` to the prefetcher's
        signature and builds nothing: a Bingo history of 2**22 one-way
        sets (32 MB of slots once built) costs the parse no memory.
        Table sizes are for a guarded worker to allocate."""
        sizes = {"history_entries": 1 << 22, "history_ways": 1}
        job_from_wire(wire_spec(prefetcher="bingo"))  # lazy imports
        tracemalloc.start()
        try:
            job = job_from_wire(
                wire_spec(prefetcher="bingo", prefetcher_kwargs=sizes)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert dict(job.prefetcher_kwargs) == sizes

    def test_kwarg_values_are_the_workers_to_judge(self):
        """A keyword the prefetcher takes parses whatever its value; the
        constructor refuses a bad one in the process that runs it."""
        job = job_from_wire(
            wire_spec(prefetcher="bingo", prefetcher_kwargs={"history_ways": 0})
        )
        with pytest.raises(ValueError, match="ways must be at least 1"):
            execute_job(job)

    def test_multi_event_kinds_travel_as_values(self):
        """JSON carries event kinds by value; the worker runs them as the
        members an in-process caller passes."""
        from repro.core.events import EventKind

        spec = wire_spec(
            workload="em3d",
            prefetcher="multi-event",
            prefetcher_kwargs={"kinds": ["pc+address", "pc"]},
        )
        served = execute_job(job_from_wire(spec))
        in_process = execute_job(
            SimJob.build(
                "em3d",
                prefetcher="multi-event",
                system=small_system(num_cores=4),
                instructions_per_core=spec["instructions"],
                warmup_instructions=spec["warmup"],
                seed=spec["seed"],
                scale=spec["scale"],
                prefetcher_kwargs={
                    "kinds": (EventKind.PC_ADDRESS, EventKind.PC)
                },
            )
        )
        assert served.to_dict() == in_process.to_dict()
        bad = job_from_wire(
            wire_spec(prefetcher="multi-event", prefetcher_kwargs={"kinds": ["nope"]})
        )
        with pytest.raises(ValueError, match="nope"):
            execute_job(bad)

    def test_multi_event_kinds_digest_as_values(self, tmp_path):
        """Members and their wire values are one job: one digest, so a
        result stored under either form is a cache hit for the other."""
        from repro.core.events import EventKind
        from repro.sim.executor import ResultCache

        served = job_from_wire(
            wire_spec(prefetcher="multi-event",
                      prefetcher_kwargs={"kinds": ["pc+address", "pc"]})
        )
        in_process = dataclasses.replace(
            served,
            prefetcher_kwargs=(("kinds", (EventKind.PC_ADDRESS, EventKind.PC)),),
        )
        assert served.digest() == in_process.digest()
        cache = ResultCache(tmp_path)
        cache.store(in_process, execute_job(in_process))
        hit = cache.load(served)
        assert hit is not None
        assert hit.to_dict() == cache.load(in_process).to_dict()

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"scale": float("inf")}, "scale must be positive and finite"),
            ({"scale": 1e308}, "OverflowError"),
            ({"instructions": float("inf")}, "OverflowError"),
            ({"seed": [7]}, "TypeError"),
            ({"system": {"llc": {"ways": 0}}}, "ZeroDivisionError"),
            (
                {"prefetcher": "sfp", "prefetcher_kwargs": {"nope": 1}},
                "unexpected keyword argument 'nope'",
            ),
        ],
        ids=["scale-inf", "scale-overflow", "instructions-inf", "seed-list",
             "llc-ways-0", "sfp-kwargs"],
    )
    def test_every_rejection_is_a_value_error(self, overrides, reason):
        """Whatever a constructor raises on a spec's values reaches the
        caller as a ``ValueError``, which the API answers with a 400 and
        a drain-file restore skips."""
        if "system" in overrides:
            system = dataclasses.asdict(small_system(num_cores=4))
            system["llc"].update(overrides["system"]["llc"])
            overrides = {"system": system}
        with pytest.raises(ValueError, match=reason):
            job_from_wire(wire_spec(**overrides))


class TestJobRecord:
    def test_digest_computed_from_job(self):
        job = job_from_wire(wire_spec())
        record = JobRecord(job=job)
        assert record.digest == job.digest()
        assert record.state is JobState.PENDING

    def test_ids_are_unique(self):
        assert new_job_id() != new_job_id()

    def test_state_properties(self):
        assert JobState.PENDING.in_flight
        assert JobState.RUNNING.in_flight
        assert JobState.DONE.terminal and JobState.FAILED.terminal
        assert not JobState.DONE.in_flight

    def test_to_dict_from_dict_round_trip(self):
        job = job_from_wire(wire_spec())
        record = JobRecord(job=job, priority=5, attempts=2)
        record.state = JobState.FAILED
        record.error = {"kind": "timeout", "message": "too slow"}
        data = record.to_dict()
        again = JobRecord.from_dict(data)
        assert again.id == record.id
        assert again.priority == 5
        assert again.attempts == 2
        assert again.digest == record.digest
        assert again.error == record.error
        assert again.state is JobState.FAILED

    def test_to_dict_includes_result_and_summary(self):
        job = job_from_wire(wire_spec())
        record = JobRecord(job=job)
        record.result = execute_job(job)
        record.state = JobState.DONE
        data = record.to_dict()
        assert data["result"]["demand_accesses"] > 0
        assert "throughput" in data["summary"]
        slim = record.to_dict(include_result=False)
        assert "result" not in slim
