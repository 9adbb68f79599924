"""Wire format and job records: the JSON boundary of the service."""

import dataclasses
import json

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
        "compile": False,
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
        """Wire and drain/restore give back the same job, digest and all.

        ``vectorized=False`` once came back True: the wire format did
        not carry it, so a restored record or a leased job ran (and was
        keyed as) a different job than the one queued.
        """
        job = SimJob.build(
            "em3d",
            prefetcher="bingo",
            system=small_system(num_cores=2),
            instructions_per_core=3000,
            warmup_instructions=500,
            seed=5,
            scale=0.05,
            prefetcher_kwargs={"short_match_policy": "most_recent"},
            train_at="l1",
            obs=ObservabilityConfig(timeline_interval=500),
            compile=False,
            vectorized=False,
            replacement="fifo",
        )
        defaults = SimJob.build("streaming")
        for name in ("compile", "vectorized", "train_at", "replacement",
                     "prefetcher_kwargs", "obs", "system"):
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
    def test_flags_must_be_booleans(self, flag):
        with pytest.raises(ValueError, match=f"'{flag}' must be true or false"):
            job_from_wire(wire_spec(**{flag: "false"}))

    def test_custom_system_round_trips(self):
        system = dataclasses.asdict(small_system(num_cores=2))
        job = job_from_wire(wire_spec(system=system))
        assert job.system.num_cores == 2
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
        job = job_from_wire(
            wire_spec(workload="raise_always", prefetcher="BINGO")
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
