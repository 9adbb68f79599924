"""The robustness envelope: retries, backoff, and the circuit breaker.

The worker slots report every job outcome here.  The supervisor's job
is policy, not mechanism: *whether* to retry a failure (and after how
long), and *whether* a job spec has failed so persistently that new
submissions of it should be refused for a while.  Mechanism — killing
overdue workers, replacing dead ones — lives in
:meth:`repro.sim.executor.Executor.run_job_guarded`.

Design notes:

* Backoff jitter is **deterministic**: drawn from a PRNG seeded by
  ``(digest, attempt)``.  Fleet behaviour still decorrelates (different
  jobs jitter differently) but a given job's retry schedule is
  reproducible — the same property every other random choice in this
  codebase has.
* The breaker quarantines *job specs* (digests), not clients: the
  pathology it guards against is one poisonous spec — a workload that
  OOMs the worker every time — being resubmitted in a loop and eating
  the whole pool through its retry budget.
* Timeouts count as retryable: wall-clock overruns are load-dependent
  (a cold compile, a busy box), unlike ordinary exceptions, which are
  deterministic functions of the spec and fail immediately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.sim.executor import JobFailure
from repro.serve.jobs import JobRecord


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attempt ``n`` (1-based) that fails retryably is re-run after
    ``min(base_delay * 2**(n-1), max_delay)`` seconds, stretched by up
    to ``jitter`` (a fraction) to decorrelate a fleet of retries.
    ``max_attempts`` bounds total executions, not retries: 3 means one
    initial run plus at most two re-runs.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, digest: str = "") -> float:
        """Seconds to wait before re-running after failed ``attempt``."""
        base = min(self.base_delay * (2 ** max(0, attempt - 1)), self.max_delay)
        if not self.jitter:
            return base
        spread = random.Random(f"{digest}:{attempt}").random()
        return base * (1.0 + self.jitter * spread)


class CircuitBreaker:
    """Quarantines job digests that keep failing.

    After ``threshold`` *consecutive* failures of one digest the breaker
    opens for that digest: :meth:`allow` returns False for ``cooldown``
    seconds.  When the cooldown lapses the breaker is half-open — one
    trial submission is allowed through; success closes the breaker,
    another failure re-opens it for a fresh cooldown.  Not thread-safe
    on its own; the service serialises calls under its metrics lock.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}

    def allow(self, digest: str) -> bool:
        opened = self._opened_at.get(digest)
        if opened is None:
            return True
        if self._clock() - opened >= self.cooldown:
            # Half-open: let one trial through.  Re-opening on its
            # failure gets a fresh timestamp via record_failure.
            return True
        return False

    def record_success(self, digest: str) -> None:
        self._failures.pop(digest, None)
        self._opened_at.pop(digest, None)

    def record_failure(self, digest: str) -> bool:
        """Count a terminal failure; returns True if the breaker is now
        (re)opened for this digest."""
        count = self._failures.get(digest, 0) + 1
        self._failures[digest] = count
        if count >= self.threshold:
            self._opened_at[digest] = self._clock()
            return True
        return False

    def retry_after(self, digest: str) -> float:
        """Seconds until a quarantined digest is half-open (0 if open now)."""
        opened = self._opened_at.get(digest)
        if opened is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - opened))

    @property
    def open_digests(self) -> int:
        now = self._clock()
        return sum(
            1 for opened in self._opened_at.values()
            if now - opened < self.cooldown
        )


class Supervisor:
    """Maps job outcomes to scheduling decisions."""

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()

    def admit(self, digest: str) -> bool:
        """May a new submission of this spec enter the queue?"""
        return self.breaker.allow(digest)

    def on_success(self, record: JobRecord) -> None:
        self.breaker.record_success(record.digest)

    def decide(
        self, record: JobRecord, failure: JobFailure
    ) -> Tuple[str, float]:
        """``("retry", delay_seconds)`` or ``("fail", 0.0)``.

        Retry only transient kinds (worker crashes, timeouts) and only
        while the attempt budget lasts; deterministic errors and
        exhausted budgets are terminal and feed the breaker.
        """
        if failure.retryable and record.attempts < self.retry.max_attempts:
            return "retry", self.retry.delay(record.attempts, record.digest)
        self.breaker.record_failure(record.digest)
        return "fail", 0.0
