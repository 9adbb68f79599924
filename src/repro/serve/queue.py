"""The service's job queue: priorities, in-flight dedup, persistence.

One :class:`JobQueue` sits between the HTTP layer (producers) and the
worker slots (consumers).  Three properties matter:

* **priority scheduling** — higher ``priority`` pops first; ties pop in
  submission order (a stable heap keyed by ``(-priority, seq)``);
* **in-flight dedup** — submitting a job whose digest matches a record
  that is still pending or running returns *that* record instead of a
  new one, so N identical concurrent requests cost one simulation and
  every requester polls the same id (completed digests are *not*
  deduped here — the executor's on-disk result cache answers those in
  microseconds, with its own hit counters);
* **backoff gating** — a record re-queued with a delay (the
  supervisor's retry path) is invisible to consumers until its
  ``not_before`` instant, without blocking other ready work behind it.
  Gated records live in their own ``not_before``-keyed heap, so a
  consumer popping ready work never touches them: a queue with a
  thousand records in backoff still pops in ``O(log ready)``, and a
  gated record costs one promotion when its instant arrives.

Persistence (:meth:`persist` / :meth:`restore`) covers the drain
contract: SIGTERM writes every non-terminal record to one JSON file;
the next daemon start re-queues them (running records restart from
``pending`` — the simulation is pure, so a re-run is safe).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.serve.jobs import JobRecord, JobState

#: bump when the persisted queue file layout changes
QUEUE_SCHEMA = 1


class JobQueue:
    """Thread-safe priority queue of :class:`JobRecord`\\ s.

    ``clock`` is injectable (monotonic seconds) so backoff gating is
    testable without sleeping.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._seq = itertools.count()
        #: ready entries (-priority, seq, record_id); lazily dropped when
        #: no longer pending
        self._heap: List[Tuple[int, int, str]] = []
        #: backoff-gated entries (not_before, -priority, seq, record_id);
        #: promoted into ``_heap`` when their instant arrives
        self._gated: List[Tuple[float, int, int, str]] = []
        self._records: "Dict[str, JobRecord]" = {}
        #: digest -> id of the in-flight record to dedup against
        self._in_flight: Dict[str, str] = {}
        self._closed = False

    # -- producers ----------------------------------------------------------
    def submit(self, record: JobRecord) -> Tuple[JobRecord, bool]:
        """Enqueue ``record``, or dedup onto an in-flight equivalent.

        Returns ``(record, deduped)``; when ``deduped`` is true the
        returned record is the *existing* one and the argument was
        discarded.
        """
        with self._ready:
            if self._closed:
                raise RuntimeError("queue is closed (service draining)")
            existing_id = self._in_flight.get(record.digest)
            if existing_id is not None:
                existing = self._records[existing_id]
                if existing.state.in_flight:
                    return existing, True
            self._records[record.id] = record
            self._in_flight[record.digest] = record.id
            record.state = JobState.PENDING
            heapq.heappush(
                self._heap, (-record.priority, next(self._seq), record.id)
            )
            self._ready.notify()
            return record, False

    def requeue(self, record: JobRecord, delay: float = 0.0) -> None:
        """Put a record back (retry path); hidden for ``delay`` seconds."""
        with self._ready:
            record.state = JobState.PENDING
            record.not_before = self._clock() + max(0.0, delay)
            self._in_flight[record.digest] = record.id
            if delay > 0:
                heapq.heappush(
                    self._gated,
                    (
                        record.not_before,
                        -record.priority,
                        next(self._seq),
                        record.id,
                    ),
                )
            else:
                heapq.heappush(
                    self._heap, (-record.priority, next(self._seq), record.id)
                )
            # wake even if gated: the consumer recomputes its wait
            self._ready.notify()

    # -- consumers ----------------------------------------------------------
    def pop(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """The highest-priority *ready* pending record, else ``None``.

        Blocks up to ``timeout`` seconds (forever when ``None``) for a
        record to become ready.  Backoff-gated records do not block
        others: the scan prefers any ready record over a gated
        higher-priority one, and sleeps only until the nearest
        ``not_before`` otherwise.  Returns ``None`` on timeout or when
        the queue is closed and nothing is ready — consumers treat that
        as "check for shutdown, then come back".
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._ready:
            while True:
                record, nearest = self._scan_locked()
                if record is not None:
                    record.state = JobState.RUNNING
                    record.attempts += 1
                    return record
                if self._closed:
                    return None
                now = self._clock()
                waits = []
                if deadline is not None:
                    if now >= deadline:
                        return None
                    waits.append(deadline - now)
                if nearest is not None:
                    waits.append(max(0.0, nearest - now))
                self._ready.wait(min(waits) if waits else None)

    def _scan_locked(self) -> Tuple[Optional[JobRecord], Optional[float]]:
        """Next ready record + the nearest gated ``not_before``, if any.

        Ripe gated entries are promoted into the ready heap first; the
        ready scan itself never visits gated entries, so a deep backoff
        backlog does not tax every ``pop``.
        """
        now = self._clock()
        while self._gated and self._gated[0][0] <= now:
            _, neg_priority, seq, record_id = heapq.heappop(self._gated)
            record = self._records.get(record_id)
            if record is None or record.state is not JobState.PENDING:
                continue  # stale entry (deduped away, already popped, ...)
            heapq.heappush(self._heap, (neg_priority, seq, record_id))

        found: Optional[JobRecord] = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            record = self._records.get(entry[2])
            if record is None or record.state is not JobState.PENDING:
                continue
            if record.not_before > now:
                # a ready entry whose record was re-gated out of band;
                # move it where it belongs instead of busy-rescanning it
                heapq.heappush(
                    self._gated,
                    (record.not_before, entry[0], entry[1], entry[2]),
                )
                continue
            found = record
            break

        nearest: Optional[float] = None
        while self._gated:
            top = self._gated[0]
            record = self._records.get(top[3])
            if record is None or record.state is not JobState.PENDING:
                heapq.heappop(self._gated)  # stale; drop eagerly
                continue
            nearest = top[0]
            break
        return found, nearest

    def steal(
        self, skip: Optional[Callable[[JobRecord], bool]] = None
    ) -> Optional[JobRecord]:
        """Take the soonest-due record out of the backoff backlog early.

        The cluster's work-stealing hook: a retry delay exists to
        protect the resource that just failed the job (and to pace the
        spec's retry budget), not to idle a healthy peer — so an idle
        node that finds the ready heap empty may run a gated record
        *now*.  ``skip`` vetoes records the caller must not take (e.g.
        "this record's last lease was on me").  Returns ``None`` when
        nothing stealable is gated.
        """
        with self._ready:
            deferred: List[Tuple[float, int, int, str]] = []
            found: Optional[JobRecord] = None
            while self._gated:
                entry = heapq.heappop(self._gated)
                record = self._records.get(entry[3])
                if record is None or record.state is not JobState.PENDING:
                    continue  # stale entry; drop
                if skip is not None and skip(record):
                    deferred.append(entry)
                    continue
                found = record
                break
            for entry in deferred:
                heapq.heappush(self._gated, entry)
            if found is not None:
                found.state = JobState.RUNNING
                found.attempts += 1
                found.not_before = 0.0
            return found

    # -- completion bookkeeping --------------------------------------------
    def finish(self, record: JobRecord) -> None:
        """Mark terminal state reached; clears the dedup slot."""
        with self._ready:
            if self._in_flight.get(record.digest) == record.id:
                del self._in_flight[record.digest]
            self._ready.notify_all()

    # -- introspection ------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def in_flight_id(self, digest: str) -> Optional[str]:
        """The id a submission of ``digest`` would dedup onto, if any.

        Admission control uses this to let dedup hits through a full
        queue — they add no work, so rejecting them only hurts.
        """
        with self._lock:
            job_id = self._in_flight.get(digest)
            if job_id is None:
                return None
            record = self._records.get(job_id)
            if record is not None and record.state.in_flight:
                return job_id
            return None

    def records(self) -> List[JobRecord]:
        """All records, newest submission first."""
        with self._lock:
            return sorted(
                self._records.values(),
                key=lambda r: r.submitted_at,
                reverse=True,
            )

    def depth(self) -> int:
        """Pending (not running, not terminal) record count."""
        return self.state_counts().get("pending", 0)

    def state_counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for record in self._records.values():
                counts[record.state.value] = counts.get(record.state.value, 0) + 1
            return counts

    # -- shutdown -----------------------------------------------------------
    def close(self) -> None:
        """Stop accepting submissions and wake all blocked consumers."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- persistence --------------------------------------------------------
    def persist(self, path: Union[str, Path]) -> int:
        """Write every non-terminal record to ``path`` (atomic); returns
        the count.  Running records are persisted too — if the drain
        timed out on a wedged job, restarting it is the correct recovery
        (results are pure functions of the spec).

        Backoff gating survives the restart: ``not_before`` is a
        monotonic-clock instant, meaningless to the next process, so
        each record persists the *remaining* delay instead and
        :meth:`restore` re-derives the instant against its own clock.
        """
        with self._lock:
            now = self._clock()
            survivors = []
            for record in self._records.values():
                if record.state.terminal:
                    continue
                data = record.to_dict(include_result=False)
                data["backoff_remaining"] = round(
                    max(0.0, record.not_before - now), 6
                )
                survivors.append(data)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": QUEUE_SCHEMA, "jobs": survivors}
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-queue-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return len(survivors)

    def restore(self, path: Union[str, Path]) -> int:
        """Re-queue records persisted by :meth:`persist`; returns the
        count.  The file is consumed (deleted) so a crash loop cannot
        double-submit.  A corrupt or schema-mismatched file restores
        nothing — mirroring every other cache in this codebase, a torn
        file is an empty file.

        A queue that is already closed (a drain raced the daemon start)
        restores nothing and deliberately leaves the file *intact* for
        the next start — crashing the daemon out of ``submit`` here
        would turn a benign shutdown race into a boot loop.  If the
        close lands mid-restore instead, the records submitted so far
        are kept and the remainder of the already-consumed file is
        dropped; the following drain persists whatever was accepted.
        """
        with self._lock:
            if self._closed:
                return 0
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return 0
        except ValueError:
            payload = None
        try:
            os.unlink(path)
        except OSError:
            pass
        if not isinstance(payload, dict) or payload.get("schema") != QUEUE_SCHEMA:
            return 0
        restored = 0
        for data in payload.get("jobs", []):
            try:
                record = JobRecord.from_dict(data)
                remaining = float(data.get("backoff_remaining", 0.0) or 0.0)
            except Exception:
                # one bad record must not sink the rest: the file is
                # already gone, so an escape here would lose them all
                continue
            record.state = JobState.PENDING
            # re-derive the gate against *this* process's clock; submit
            # places it in the ready heap and the next scan re-gates it
            # (the same out-of-band path requeue-while-queued uses)
            record.not_before = (
                self._clock() + remaining if remaining > 0 else 0.0
            )
            try:
                self.submit(record)
            except RuntimeError:  # closed mid-restore
                break
            restored += 1
        return restored
