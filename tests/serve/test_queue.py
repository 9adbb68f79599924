"""JobQueue: priority order, in-flight dedup, backoff gating, persistence."""

import pytest

from repro.common.config import small_system
from repro.sim.executor import SimJob
from repro.serve.jobs import JobRecord, JobState
from repro.serve.queue import JobQueue


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_job(seed: int = 1, workload: str = "streaming") -> SimJob:
    return SimJob.build(
        workload,
        prefetcher="none",
        system=small_system(num_cores=4),
        instructions_per_core=1000,
        warmup_instructions=0,
        seed=seed,
    )


def record(seed: int = 1, priority: int = 0) -> JobRecord:
    return JobRecord(job=make_job(seed), priority=priority)


class TestPriorityOrder:
    def test_higher_priority_pops_first(self):
        queue = JobQueue()
        low, _ = queue.submit(record(seed=1, priority=0))
        high, _ = queue.submit(record(seed=2, priority=10))
        assert queue.pop(timeout=0) is high
        assert queue.pop(timeout=0) is low

    def test_ties_pop_in_submission_order(self):
        queue = JobQueue()
        first, _ = queue.submit(record(seed=1))
        second, _ = queue.submit(record(seed=2))
        assert queue.pop(timeout=0) is first
        assert queue.pop(timeout=0) is second

    def test_pop_marks_running_and_counts_attempt(self):
        queue = JobQueue()
        queue.submit(record())
        popped = queue.pop(timeout=0)
        assert popped.state is JobState.RUNNING
        assert popped.attempts == 1

    def test_pop_empty_times_out(self):
        assert JobQueue().pop(timeout=0) is None


class TestDedup:
    def test_identical_digest_dedups_onto_existing(self):
        queue = JobQueue()
        original, deduped = queue.submit(record(seed=5))
        assert not deduped
        twin, deduped = queue.submit(record(seed=5))
        assert deduped
        assert twin is original
        assert queue.pop(timeout=0) is original
        assert queue.pop(timeout=0) is None

    def test_running_jobs_still_dedup(self):
        queue = JobQueue()
        original, _ = queue.submit(record(seed=5))
        assert queue.pop(timeout=0) is original  # now RUNNING
        twin, deduped = queue.submit(record(seed=5))
        assert deduped and twin is original

    def test_finished_jobs_do_not_dedup(self):
        queue = JobQueue()
        original, _ = queue.submit(record(seed=5))
        popped = queue.pop(timeout=0)
        popped.state = JobState.DONE
        queue.finish(popped)
        fresh, deduped = queue.submit(record(seed=5))
        assert not deduped
        assert fresh is not original

    def test_different_digests_never_dedup(self):
        queue = JobQueue()
        _, first_dedup = queue.submit(record(seed=1))
        _, second_dedup = queue.submit(record(seed=2))
        assert not first_dedup and not second_dedup
        assert queue.depth() == 2


class TestBackoffGating:
    def test_gated_record_is_invisible_until_not_before(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        rec, _ = queue.submit(record(seed=1))
        assert queue.pop(timeout=0) is rec
        queue.requeue(rec, delay=5.0)
        assert queue.pop(timeout=0) is None
        clock.advance(5.1)
        assert queue.pop(timeout=0) is rec
        assert rec.attempts == 2

    def test_gated_record_does_not_block_ready_work(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        urgent, _ = queue.submit(record(seed=1, priority=100))
        assert queue.pop(timeout=0) is urgent
        queue.requeue(urgent, delay=60.0)  # high priority but gated
        ready, _ = queue.submit(record(seed=2, priority=0))
        assert queue.pop(timeout=0) is ready

    def test_requeue_restores_dedup_slot(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        rec, _ = queue.submit(record(seed=1))
        queue.pop(timeout=0)
        queue.requeue(rec, delay=30.0)
        twin, deduped = queue.submit(record(seed=1))
        assert deduped and twin is rec


class TestClose:
    def test_submit_after_close_raises(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(RuntimeError, match="clos"):
            queue.submit(record())

    def test_pop_after_close_returns_none_without_blocking(self):
        queue = JobQueue()
        queue.close()
        assert queue.pop(timeout=None) is None

    def test_ready_records_still_pop_after_close(self):
        queue = JobQueue()
        rec, _ = queue.submit(record())
        queue.close()
        assert queue.pop(timeout=0) is rec


class TestPersistence:
    def test_persist_restore_round_trip(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        pending, _ = queue.submit(record(seed=1, priority=3))
        running, _ = queue.submit(record(seed=2))
        done, _ = queue.submit(record(seed=3))

        popped = queue.pop(timeout=0)  # seed=1 (priority 3) -> running
        assert popped is pending
        done_popped = None
        while done_popped is not done:
            done_popped = queue.pop(timeout=0)
            done_popped.state = (
                JobState.DONE if done_popped is done else JobState.RUNNING
            )
        queue.finish(done)

        path = tmp_path / "queue.json"
        count = queue.persist(path)
        assert count == 2  # running x2 persisted, done dropped

        fresh = JobQueue()
        assert fresh.restore(path) == 2
        assert not path.exists(), "restore must consume the file"
        states = fresh.state_counts()
        assert states == {"pending": 2}
        first = fresh.pop(timeout=0)
        assert first.priority == 3, "priority survives the round trip"
        assert first.digest == pending.digest
        assert first.id == pending.id

    def test_restore_missing_file_is_empty(self, tmp_path):
        assert JobQueue().restore(tmp_path / "nope.json") == 0

    def test_restore_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "queue.json"
        path.write_text("{not json", encoding="utf-8")
        assert JobQueue().restore(path) == 0
        assert not path.exists()

    def test_restore_schema_mismatch_is_empty(self, tmp_path):
        import json

        path = tmp_path / "queue.json"
        path.write_text(
            json.dumps({"schema": 999, "jobs": []}), encoding="utf-8"
        )
        assert JobQueue().restore(path) == 0

    def test_one_bad_record_does_not_sink_the_rest(self, tmp_path):
        import json

        queue = JobQueue()
        queue.submit(record(seed=1))
        path = tmp_path / "queue.json"
        queue.persist(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["jobs"].append({"id": "broken", "job": {"nope": 1}})
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert JobQueue().restore(path) == 1

    def test_a_version_2_drain_file_restores_nothing(self, tmp_path, caplog):
        """Version-2 records carry ``compile`` and ``vectorized``; each
        fails to parse, is counted as dropped and logged by id, and the
        file is consumed as usual."""
        import json
        import logging

        queue = JobQueue()
        ids = [queue.submit(record(seed=seed))[0].id for seed in (1, 2)]
        path = tmp_path / "queue.json"
        queue.persist(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        for data in payload["jobs"]:
            data["job"].update(wire_version=2, compile=True, vectorized=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        restarted = JobQueue()
        with caplog.at_level(logging.WARNING, logger="repro.serve.queue"):
            assert restarted.restore(path) == 0
        assert restarted.dropped_jobs == 2
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 2
        for record_id, message in zip(ids, warnings):
            assert repr(record_id) in message and "compile" in message
        assert not path.exists()

    def test_records_no_constructor_can_take_do_not_sink_the_rest(
        self, tmp_path
    ):
        """Records whose values break arithmetic (an infinite scale or
        attempt count) are skipped, and a prefetcher keyword whose value
        only the constructor refuses restores: the drain file is gone
        once read, so an escaping error would lose every record."""
        import json

        queue = JobQueue()
        queue.submit(record(seed=1))
        path = tmp_path / "queue.json"
        queue.persist(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        good = payload["jobs"][0]
        infinite_scale = json.loads(json.dumps(good))
        infinite_scale["id"] = "scale"
        infinite_scale["job"]["scale"] = float("inf")
        infinite_attempts = json.loads(json.dumps(good))
        infinite_attempts["id"] = "attempts"
        infinite_attempts["attempts"] = float("inf")
        zero_ways = json.loads(json.dumps(good))
        zero_ways["id"] = "ways"
        zero_ways["job"]["prefetcher"] = "bingo"
        zero_ways["job"]["prefetcher_kwargs"] = {"history_ways": 0}
        payload["jobs"] = [infinite_scale, infinite_attempts, zero_ways, good]
        path.write_text(json.dumps(payload), encoding="utf-8")
        fresh = JobQueue()
        assert fresh.restore(path) == 2
        assert {fresh.pop(timeout=0).id, fresh.pop(timeout=0).id} == {
            "ways", good["id"]
        }

    def test_restore_on_closed_queue_is_noop_keeping_file(self, tmp_path):
        """Regression: a drain racing the daemon start used to crash the
        boot — ``restore`` fed records into ``submit()``, which raises
        ``RuntimeError`` once the queue is closed.  A closed queue must
        restore nothing and leave the drain file *intact* for the next
        start."""
        queue = JobQueue()
        queue.submit(record(seed=1))
        path = tmp_path / "queue.json"
        assert queue.persist(path) == 1

        closed = JobQueue()
        closed.close()
        assert closed.restore(path) == 0
        assert closed.state_counts() == {}
        assert path.exists(), "closed-queue restore must keep the file"

        fresh = JobQueue()
        assert fresh.restore(path) == 1, "next start still recovers"
        assert not path.exists()


class CountingHeapq:
    """heapq facade that counts operations (the real functions do the work)."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item) -> None:
        self.pushes += 1
        import heapq

        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        import heapq

        return heapq.heappop(heap)

    def reset(self) -> None:
        self.pushes = self.pops = 0

    @property
    def total(self) -> int:
        return self.pushes + self.pops


class TestGatedBacklogScaling:
    def test_pop_ignores_deep_backoff_backlog(self, monkeypatch):
        """Perf regression: ``_scan_locked`` used to pop *every* gated
        entry off the one heap and push it back on *every* ``pop`` call
        — O(gated · log n) per pop.  Gated records now live in their own
        ``not_before``-keyed heap, so popping ready work over a
        1000-record backoff backlog costs O(1) heap operations, not
        thousands."""
        import repro.serve.queue as queue_mod

        clock = FakeClock()
        queue = JobQueue(clock=clock)
        backlog = 1000
        for seed in range(backlog):
            gated, _ = queue.submit(record(seed=seed))
            assert queue.pop(timeout=0) is gated
            queue.requeue(gated, delay=60.0)

        counting = CountingHeapq()
        monkeypatch.setattr(queue_mod, "heapq", counting)

        ready, _ = queue.submit(record(seed=backlog + 1))
        counting.reset()
        assert queue.pop(timeout=0) is ready
        assert counting.total <= 4, (
            f"pop over a {backlog}-record gated backlog did "
            f"{counting.pops} pops + {counting.pushes} pushes"
        )

        # ...and the backlog itself still promotes correctly when ripe
        clock.advance(61.0)
        promoted = queue.pop(timeout=0)
        assert promoted is not None
        assert promoted.attempts == 2


class TestWorkStealing:
    def test_steal_takes_soonest_due_gated_record(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        late, _ = queue.submit(record(seed=1))
        soon, _ = queue.submit(record(seed=2))
        queue.pop(timeout=0)
        queue.pop(timeout=0)
        queue.requeue(late, delay=60.0)
        queue.requeue(soon, delay=10.0)
        stolen = queue.steal()
        assert stolen is soon
        assert stolen.state is JobState.RUNNING
        assert stolen.attempts == 2
        assert stolen.not_before == 0.0

    def test_steal_honors_skip_and_keeps_skipped_gated(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        mine, _ = queue.submit(record(seed=1))
        queue.pop(timeout=0)
        queue.requeue(mine, delay=10.0)
        assert queue.steal(skip=lambda r: r.id == mine.id) is None
        # the skipped entry went back into the gated heap intact
        clock.advance(10.1)
        assert queue.pop(timeout=0) is mine

    def test_steal_ignores_ready_and_empty(self):
        queue = JobQueue()
        queue.submit(record(seed=1))
        # ready (ungated) work is pop's business, not steal's
        assert queue.steal() is None
        queue.pop(timeout=0)
        assert queue.steal() is None


class TestPersistenceRoundTrips:
    """Satellite coverage: drains in every interesting queue state must
    restore to an equivalent queue — priorities, dedup identity, and
    backoff gating all survive the process boundary."""

    def test_priority_order_survives_restore(self, tmp_path):
        queue = JobQueue()
        order_in = [(1, 0), (2, 50), (3, 10), (4, 50)]
        for seed, priority in order_in:
            queue.submit(record(seed=seed, priority=priority))
        path = tmp_path / "queue.json"
        assert queue.persist(path) == 4

        fresh = JobQueue()
        assert fresh.restore(path) == 4
        popped = [fresh.pop(timeout=0) for _ in range(4)]
        priorities = [r.priority for r in popped]
        assert priorities == [50, 50, 10, 0]
        # equal priorities keep their original submission order
        assert [r.digest for r in popped[:2]] == [
            record(seed=2).digest,
            record(seed=4).digest,
        ]

    def test_resubmission_dedups_onto_restored_record(self, tmp_path):
        queue = JobQueue()
        original, _ = queue.submit(record(seed=5))
        path = tmp_path / "queue.json"
        queue.persist(path)

        fresh = JobQueue()
        fresh.restore(path)
        twin, deduped = fresh.submit(record(seed=5))
        assert deduped
        assert twin.id == original.id
        assert fresh.pop(timeout=0) is twin
        assert fresh.pop(timeout=0) is None

    def test_backoff_gate_survives_restore_across_clock_epochs(self, tmp_path):
        """``not_before`` is a monotonic instant, meaningless to the
        next process: the drain file carries the *remaining* delay and
        restore re-derives the gate against its own clock — even one
        with a wildly different epoch."""
        old_clock = FakeClock(now=1_000_000.0)
        queue = JobQueue(clock=old_clock)
        rec, _ = queue.submit(record(seed=6))
        queue.pop(timeout=0)
        queue.requeue(rec, delay=30.0)
        old_clock.advance(10.0)  # 20s of the delay still to serve
        path = tmp_path / "queue.json"
        assert queue.persist(path) == 1
        import json

        saved = json.loads(path.read_text(encoding="utf-8"))
        assert saved["jobs"][0]["backoff_remaining"] == pytest.approx(20.0)

        new_clock = FakeClock(now=5.0)  # restarted process, tiny epoch
        fresh = JobQueue(clock=new_clock)
        assert fresh.restore(path) == 1
        assert fresh.pop(timeout=0) is None, "gate must still hold"
        new_clock.advance(19.0)
        assert fresh.pop(timeout=0) is None
        new_clock.advance(1.1)
        restored = fresh.pop(timeout=0)
        assert restored is not None
        assert restored.digest == rec.digest

    def test_expired_backoff_restores_ready(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        rec, _ = queue.submit(record(seed=7))
        queue.pop(timeout=0)
        queue.requeue(rec, delay=5.0)
        clock.advance(60.0)  # delay fully served before the drain
        path = tmp_path / "queue.json"
        queue.persist(path)

        fresh = JobQueue(clock=FakeClock())
        assert fresh.restore(path) == 1
        assert fresh.pop(timeout=0) is not None, "no phantom gate"

    def test_restored_gated_record_is_stealable(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        rec, _ = queue.submit(record(seed=8))
        queue.pop(timeout=0)
        queue.requeue(rec, delay=30.0)
        path = tmp_path / "queue.json"
        queue.persist(path)

        fresh = JobQueue(clock=FakeClock())
        fresh.restore(path)
        assert fresh.pop(timeout=0) is None  # still gated...
        stolen = fresh.steal()  # ...but an idle peer may take it
        assert stolen is not None
        assert stolen.digest == rec.digest
