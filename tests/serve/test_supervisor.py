"""Retry policy, circuit breaker, and the supervisor's decisions."""

import pytest

from repro.common.config import small_system
from repro.sim.executor import JobFailure, SimJob
from repro.serve.jobs import JobRecord
from repro.serve.supervisor import CircuitBreaker, RetryPolicy, Supervisor


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_record(seed: int = 1, attempts: int = 1) -> JobRecord:
    job = SimJob.build(
        "streaming",
        prefetcher="none",
        system=small_system(num_cores=4),
        instructions_per_core=1000,
        warmup_instructions=0,
        seed=seed,
    )
    return JobRecord(job=job, attempts=attempts)


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(
            base_delay=1.0, max_delay=8.0, jitter=0.0, max_attempts=10
        )
        delays = [policy.delay(n) for n in (1, 2, 3, 4, 5, 6)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_stretches_but_is_bounded(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=64.0, jitter=0.5)
        delay = policy.delay(1, digest="abc")
        assert 1.0 <= delay <= 1.5

    def test_jitter_is_deterministic_per_digest_and_attempt(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay(2, "aaa") == policy.delay(2, "aaa")
        assert policy.delay(2, "aaa") != policy.delay(2, "bbb")
        assert policy.delay(2, "aaa") != policy.delay(3, "aaa")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=5.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=60.0, clock=clock)
        assert not breaker.record_failure("d")
        assert not breaker.record_failure("d")
        assert breaker.allow("d")
        assert breaker.record_failure("d")
        assert not breaker.allow("d")
        assert breaker.open_digests == 1
        assert breaker.retry_after("d") == pytest.approx(60.0)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure("d")
        breaker.record_success("d")
        assert not breaker.record_failure("d")
        assert breaker.allow("d")

    def test_half_open_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("d")
        assert not breaker.allow("d")
        clock.advance(10.0)
        assert breaker.allow("d"), "cooldown lapsed: half-open trial"
        # trial failure re-opens with a fresh cooldown
        breaker.record_failure("d")
        assert not breaker.allow("d")
        # trial success closes for good
        clock.advance(10.0)
        breaker.record_success("d")
        assert breaker.allow("d")
        assert breaker.open_digests == 0

    def test_digests_are_independent(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1)


class TestSupervisor:
    def test_retryable_failure_within_budget_retries(self):
        supervisor = Supervisor(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        )
        record = make_record(attempts=1)
        failure = JobFailure.crash(record.job, "killed")
        action, delay = supervisor.decide(record, failure)
        assert action == "retry"
        assert delay == 1.0
        record.attempts = 2
        action, delay = supervisor.decide(record, failure)
        assert (action, delay) == ("retry", 2.0)

    def test_budget_exhaustion_fails_and_feeds_breaker(self):
        supervisor = Supervisor(
            retry=RetryPolicy(max_attempts=2),
            breaker=CircuitBreaker(threshold=1, clock=FakeClock()),
        )
        record = make_record(attempts=2)
        failure = JobFailure.timeout(record.job, 1.0)
        action, _ = supervisor.decide(record, failure)
        assert action == "fail"
        assert not supervisor.admit(record.digest)

    def test_deterministic_error_never_retries(self):
        supervisor = Supervisor(retry=RetryPolicy(max_attempts=5))
        record = make_record(attempts=1)
        failure = JobFailure.from_exception(record.job, ValueError("bug"))
        action, _ = supervisor.decide(record, failure)
        assert action == "fail"

    def test_success_closes_the_breaker(self):
        supervisor = Supervisor(
            breaker=CircuitBreaker(threshold=1, clock=FakeClock())
        )
        record = make_record()
        supervisor.breaker.record_failure(record.digest)
        assert not supervisor.admit(record.digest)
        clock = supervisor.breaker._clock
        clock.advance(60.0)
        supervisor.on_success(record)
        assert supervisor.admit(record.digest)
