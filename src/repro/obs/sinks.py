"""Trace sinks: where observability events go.

The contract is deliberately tiny — ``enabled`` plus ``emit(event)`` —
because emit sites sit on the simulator's hot path.  Components default
to the module-level :data:`NULL_SINK`, whose ``enabled`` is ``False``,
so a disabled run pays exactly one attribute check per potential event
and allocates nothing.

Concrete sinks:

* :class:`RingBufferSink` — keeps the *last* N events (flight-recorder
  debugging: "what led up to this?");
* :class:`RecordingSink` — keeps the *first* N events, then disables
  itself (golden fixtures, conformance checks);
* :class:`JsonlSink` — streams every event as one JSON object per line
  (the ``bingo-sim run --trace`` format).

:func:`replay_llc_counters` recomputes the LLC's counter totals from a
recorded event stream; the regression suite asserts it agrees exactly
with the live :class:`~repro.common.stats.StatGroup`.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.events import TraceEvent, event_from_dict


class TraceSink:
    """Event consumer protocol.

    ``enabled`` is read by every emit site *before* constructing the
    event, so a sink can stop collection (see :class:`RecordingSink`)
    by flipping it to ``False``.
    """

    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (file sinks); idempotent."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(TraceSink):
    """Discards everything; ``enabled`` is False so emit sites skip it."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - guarded
        pass


#: The process-wide default sink.  Components hold a reference to this
#: object until a run wires a real sink in; the hot path's guard is
#: ``if sink.enabled:`` against this instance.
NULL_SINK = NullSink()


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events (a flight recorder)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: "deque[TraceEvent]" = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class RecordingSink(TraceSink):
    """Keeps the first ``limit`` events (0 = unlimited) in order.

    Once the limit is reached the sink sets ``enabled = False``, so the
    rest of the run reverts to null-sink cost.
    """

    def __init__(self, limit: int = 0) -> None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.limit = limit
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.limit and len(self.events) >= self.limit:
            self.enabled = False

    def __len__(self) -> int:
        return len(self.events)


class TeeSink(TraceSink):
    """Fans one event stream out to several child sinks.

    A child that disables itself (a full :class:`RecordingSink`) is
    skipped; the tee reports ``enabled`` as long as *any* child still
    listens, so emit sites keep their single-attribute-check guard.
    """

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        self.sinks: List[TraceSink] = list(sinks)
        if not self.sinks:
            raise ValueError("TeeSink needs at least one child sink")

    @property  # type: ignore[override]
    def enabled(self) -> bool:
        return any(sink.enabled for sink in self.sinks)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            if sink.enabled:
                sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlSink(TraceSink):
    """Streams events to ``path``, one compact JSON object per line.

    ``limit`` (0 = unlimited) truncates long runs: after ``limit``
    events the sink disables itself, leaving a valid prefix trace.
    ``count`` is the number of events written.
    """

    def __init__(self, path: Union[str, Path], limit: int = 0) -> None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.path = Path(path)
        self.limit = limit
        self.count = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        json.dump(event.to_dict(), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.count += 1
        if self.limit and self.count >= self.limit:
            self.enabled = False

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL trace back into typed events."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


def replay_llc_counters(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Recompute the LLC counter totals implied by an event stream.

    Returns the same keys the hierarchy's ``llc`` stat group uses
    (``demand_hits`` excludes covered first-uses, exactly as the live
    counters do), plus ``evictions`` covering both capacity evictions
    and invalidations.  A complete trace replayed through this function
    must match the run's final totals — that equivalence is the
    observability layer's correctness invariant.
    """
    totals = {
        "demand_accesses": 0,
        "demand_hits": 0,
        "demand_misses": 0,
        "covered": 0,
        "late_covered": 0,
        "prefetches_issued": 0,
        "prefetch_fills": 0,
        "evictions": 0,
        "overpredictions": 0,
        "vote_decisions": 0,
    }
    issued = set()
    for event in events:
        kind = event.kind
        if kind == "demand_hit":
            totals["demand_accesses"] += 1
            if event.covered:
                totals["covered"] += 1
                if event.late:
                    totals["late_covered"] += 1
            else:
                totals["demand_hits"] += 1
        elif kind == "demand_miss":
            totals["demand_accesses"] += 1
            totals["demand_misses"] += 1
        elif kind == "prefetch_issued":
            totals["prefetches_issued"] += 1
            issued.add(event.block)
        elif kind == "prefetch_fill":
            totals["prefetch_fills"] += 1
            if event.block not in issued:
                raise ValueError(
                    f"trace replays a fill for block {event.block:#x} "
                    "that was never issued"
                )
        elif kind == "eviction":
            totals["evictions"] += 1
            if event.prefetched and not event.used:
                totals["overpredictions"] += 1
        elif kind == "vote_decision":
            totals["vote_decisions"] += 1
    return totals


def build_sink(config) -> Optional[TraceSink]:
    """Construct the sink an :class:`ObservabilityConfig` asks for.

    Returns ``None`` when the config requests no tracing, so callers can
    distinguish "engine owns a file sink it must close" from "nothing to
    do".
    """
    if config is None or not config.trace_path:
        return None
    return JsonlSink(config.trace_path, limit=config.trace_limit)
