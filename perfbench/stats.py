"""Order statistics, result digests, the failure ledger and the report.

Everything here is pure arithmetic over numbers the harness collected;
``test_harness.py`` pins the definitions down.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: a timing's tail is the highest percentile with at least this many
#: samples beyond it
TAIL_BEYOND = 10

#: note on a metric printed in the table but kept out of BENCHMARK.json:
#: on a shared VM its run-to-run spread exceeds any bound the file allows
UNBOUNDED = "printed only: too sensitive to host load for a bound"


class TrafficError(RuntimeError):
    """The workload did not do what its name says; no number is reported."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has ``beyond`` samples above it.

    With ``n`` samples sorted ascending, that is the sample of rank
    ``n - beyond`` (1-based): exactly ``beyond`` samples lie beyond it,
    and it sits at percentile ``100 * (n - beyond) / n``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(
            f"a tail with {beyond} samples beyond it needs more than "
            f"{beyond} samples, got {n}"
        )
    ordered = sorted(values)
    rank = n - beyond
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def typical_pass(point_seconds: Sequence[float], points: int) -> float:
    """Seconds of a typical pass: each point's median over the passes,
    summed over the points.

    ``point_seconds`` holds whole passes in order, ``points`` samples
    each.  A burst of host load that slows fewer than half of the passes
    of every point moves this less than it moves the passes' total.
    """
    if points < 1 or not point_seconds or len(point_seconds) % points:
        raise ValueError(
            f"{len(point_seconds)} samples are not whole passes of {points} points"
        )
    return sum(median(point_seconds[i::points]) for i in range(points))


def in_reference_seconds(host_seconds: Sequence[float], loop_seconds: Sequence[float],
                         iterations: int, rate: float) -> List[float]:
    """``host_seconds`` in reference seconds.

    One reference second is the time the host takes for ``rate``
    iterations of a loop that ran ``iterations`` times in each of
    ``loop_seconds`` (their median), timed alongside the samples.
    """
    reference_second = median(loop_seconds) * rate / iterations
    return [x / reference_second for x in host_seconds]


def result_digest(result: Dict[str, object]) -> str:
    """SHA-256 of a ``SimResult.to_dict()`` in canonical JSON.

    JSON round-trips Python floats exactly, so a result that crossed the
    HTTP API digests the same as the in-process object it came from.
    """
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when it raised, failed, timed out, was refused,
    or returned a result whose digest differs from the reference.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, digest: Optional[str], reference: Optional[str]) -> bool:
        """Count one result against its reference digest."""
        if reference is None:
            self.fail("no-reference")
            return False
        if digest != reference:
            self.fail("wrong-result")
            return False
        self.ok()
        return True

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


class Report:
    """Named metrics of one run, printed as a table and a final JSON line."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def table(self) -> List[str]:
        width = max((len(name) for name in self.metrics), default=0)
        return [
            f"{name:<{width}}  {m.value:.6g} {m.unit}  n={m.samples}"
            + (f"  ({m.note})" if m.note else "")
            for name, m in self.metrics.items()
        ]

    def result_line(
        self, declared: Sequence[Tuple[str, str]], ledger: Ledger, correct: bool
    ) -> str:
        """The contract's last line: exactly the ``declared`` metrics."""
        out = {}
        for name, unit in declared:
            metric = self.metrics.get(name)
            if metric is None:
                raise KeyError(f"declared metric {name!r} was not measured")
            if metric.unit != unit:
                raise ValueError(
                    f"metric {name!r} measured in {metric.unit!r}, "
                    f"declared in {unit!r}"
                )
            out[name] = {"value": metric.value, "unit": unit}
        return json.dumps(
            {
                "correct": bool(correct),
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": out,
            }
        )
