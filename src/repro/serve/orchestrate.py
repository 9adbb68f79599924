"""Adaptive experiments: successive halving over a space, run by a client.

The fixed-grid machinery (``experiments``, ``sweep``) enumerates every
point of a parameter matrix at full length.  The paper's sensitivity
studies (Fig. 6's history-table sweep, Fig. 10's iso-degree variants)
are really *searches* over that matrix — most grid points exist only
to be ruled out — so :func:`run_halving` turns a parameter **space**
into rounds of ordinary jobs submitted to a running service through a
:class:`~repro.serve.client.ServiceClient`:

* an :class:`ExperimentSpace` is ``workloads × prefetchers × knob
  grids`` over a shared base spec (seed, scale, system, replacement,
  ...), enumerated deterministically via
  :func:`repro.sim.sweep.expand_grid`;
* a :class:`HalvingSchedule` stretches instruction budgets
  geometrically from a cheap short-trace *screen* up to the full run
  length; after each rung only the top ``1/eta`` fraction of candidates
  (ranked by the :class:`Objective` — IPC, coverage, MPKI, ...) is
  promoted, Hyperband-style, with an optional absolute ``cutoff`` for
  per-round early stopping;
* every rung's jobs ride the daemon's ordinary job path — priority
  queue, in-flight dedup, retries, circuit breaker, admission control —
  and the **full-length** jobs of the final rung are byte-identical to
  directly-submitted :class:`~repro.sim.executor.SimJob`\\ s (same
  digests), so their results land in, and re-submissions are answered
  by, the shared :class:`~repro.sim.executor.ResultCache`.

Screen-rung jobs scale the warmup window proportionally
(:meth:`SimJob.with_instructions`), so a short trace measures the same
*shape* of run; the final rung uses the base spec's params untouched —
that exactness is what makes the digest/cache guarantees above hold.
The daemon keeps no state for a search: the client must stay up until
the last rung finishes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.executor import SimJob
from repro.sim.results import SimResult
from repro.sim.sweep import expand_grid
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.jobs import job_from_wire, job_to_wire

#: a space larger than this is refused outright — an adaptive search
#: that starts by enumerating a hundred thousand screens is a grid sweep
#: wearing a costume
MAX_POINTS = 4096

#: objective metrics -> (SimResult attribute, natural direction)
OBJECTIVE_METRICS: Dict[str, Tuple[str, str]] = {
    "ipc": ("throughput", "max"),  # system IPC == summed per-core IPCs
    "throughput": ("throughput", "max"),
    "coverage": ("coverage", "max"),
    "accuracy": ("accuracy", "max"),
    "mpki": ("mpki", "min"),
    "overprediction": ("overprediction", "min"),
}


class OrchestrationError(RuntimeError):
    """A search could not run to completion."""


@dataclass(frozen=True)
class Objective:
    """What to optimise, in the metric's natural direction (``mpki`` and
    ``overprediction`` minimise, everything else maximises)."""

    metric: str = "ipc"

    def __post_init__(self) -> None:
        if self.metric not in OBJECTIVE_METRICS:
            raise ValueError(
                f"unknown objective metric {self.metric!r}; "
                f"choose from {sorted(OBJECTIVE_METRICS)}"
            )

    @property
    def direction(self) -> str:
        return OBJECTIVE_METRICS[self.metric][1]

    def score(self, result: SimResult) -> float:
        return float(getattr(result, OBJECTIVE_METRICS[self.metric][0]))

    def sort_key(self, score: float) -> float:
        """Ascending sort on this key puts the *best* score first."""
        return -score if self.direction == "max" else score

    def meets(self, score: float, cutoff: Optional[float]) -> bool:
        """Does ``score`` clear the early-stop bar (when one is set)?"""
        if cutoff is None:
            return True
        return score >= cutoff if self.direction == "max" else score <= cutoff


@dataclass(frozen=True)
class HalvingSchedule:
    """Successive-halving budgets: screen cheap, promote, finish full.

    Rungs grow geometrically by ``eta`` from ``screen_instructions``
    until they reach ``full_instructions`` (the last rung is always
    exactly the full budget); after every non-final rung the top
    ``ceil(n / eta)`` candidates promote.  ``cutoff`` adds absolute
    per-round early stopping: a candidate whose score fails the bar is
    dropped even inside the keep fraction — though the single best
    candidate always survives, so a search always produces a winner.
    """

    screen_instructions: int = 2_000
    full_instructions: int = 20_000
    eta: float = 2.0
    cutoff: Optional[float] = None

    def __post_init__(self) -> None:
        if self.screen_instructions < 1:
            raise ValueError("screen_instructions must be >= 1")
        if self.full_instructions < self.screen_instructions:
            raise ValueError(
                "full_instructions must be >= screen_instructions "
                f"({self.full_instructions} < {self.screen_instructions})"
            )
        if self.eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {self.eta}")

    def rungs(self) -> List[int]:
        """Instruction budgets per round, ending exactly at full length."""
        rungs: List[int] = []
        budget = self.screen_instructions
        while budget < self.full_instructions:
            rungs.append(budget)
            budget = max(budget + 1, int(budget * self.eta))
        rungs.append(self.full_instructions)
        return rungs

    def keep(self, candidates: int) -> int:
        """How many of ``candidates`` promote out of a non-final round."""
        return min(candidates, max(1, math.ceil(candidates / self.eta)))


@dataclass(frozen=True)
class ExperimentSpace:
    """The search space: axes over workloads, prefetchers, and knobs.

    ``knobs`` are prefetcher keyword axes (``(("degree", (1, 2, 4)),
    ...)``); ``base`` is the shared wire-format job spec every point
    inherits (``warmup``, ``seed``, ``scale``, ``system``,
    ``replacement``, ...).  ``base`` must not carry ``instructions`` —
    the halving schedule owns the budget — nor the axis fields.
    """

    workloads: Tuple[str, ...]
    prefetchers: Tuple[str, ...] = ("bingo",)
    knobs: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("experiment space needs at least one workload")
        if not self.prefetchers:
            raise ValueError("experiment space needs at least one prefetcher")
        for name, values in self.knobs:
            if not values:
                raise ValueError(f"knob axis {name!r} has no values")
        forbidden = {"workload", "prefetcher", "instructions"} & set(self.base)
        if forbidden:
            raise ValueError(
                f"base spec must not set {sorted(forbidden)}: the space "
                "axes and the halving schedule own those fields"
            )

    def points(self) -> List[Dict[str, Any]]:
        """Every point as a wire-format job spec (minus ``instructions``).

        Deterministic odometer order: workloads outermost, then
        prefetchers, then knob axes with the last axis varying fastest —
        the same order :func:`expand_grid` gives a fixed sweep, so point
        indices are stable across runs, logs, and clients.
        """
        combos = expand_grid({name: values for name, values in self.knobs})
        out: List[Dict[str, Any]] = []
        for workload in self.workloads:
            for prefetcher in self.prefetchers:
                for combo in combos:
                    spec = dict(self.base)
                    spec["workload"] = workload
                    spec["prefetcher"] = prefetcher
                    kwargs = dict(self.base.get("prefetcher_kwargs") or {})
                    kwargs.update(combo)
                    if kwargs:
                        spec["prefetcher_kwargs"] = kwargs
                    out.append(spec)
        return out


def _names(payload: Any, what: str) -> Tuple[str, ...]:
    if isinstance(payload, str):
        payload = [payload]
    if not isinstance(payload, (list, tuple)) or not all(
        isinstance(item, str) and item for item in payload
    ):
        raise ValueError(f"{what} must be a name or a list of names")
    return tuple(payload)


def space_from_wire(payload: Any) -> ExperimentSpace:
    """Build an :class:`ExperimentSpace` from its JSON object (the
    ``bingo-sim experiment --space`` argument)."""
    if not isinstance(payload, dict):
        raise ValueError("'space' must be an object")
    unknown = set(payload) - {"workloads", "prefetchers", "knobs", "base"}
    if unknown:
        raise ValueError(f"unknown space field(s): {sorted(unknown)}")
    if "workloads" not in payload:
        raise ValueError("'space' needs a 'workloads' list")
    knobs_payload = payload.get("knobs") or {}
    if not isinstance(knobs_payload, dict):
        raise ValueError("'knobs' must be an object of value lists")
    knobs = []
    for name, values in knobs_payload.items():
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"knob {name!r} must map to a list of values")
        knobs.append((str(name), tuple(values)))
    base = payload.get("base") or {}
    if not isinstance(base, dict):
        raise ValueError("'base' must be an object")
    kwargs: Dict[str, Any] = {
        "workloads": _names(payload["workloads"], "'workloads'"),
        "knobs": tuple(knobs),
        "base": dict(base),
    }
    if "prefetchers" in payload:
        kwargs["prefetchers"] = _names(payload["prefetchers"], "'prefetchers'")
    return ExperimentSpace(**kwargs)


def _full_job(point: Dict[str, Any], schedule: HalvingSchedule) -> SimJob:
    """The point's full-length job — byte-identical to a direct build."""
    spec = dict(point)
    spec["instructions"] = schedule.full_instructions
    if "warmup" not in spec:
        # job_from_wire's absolute default (20k) can exceed a short
        # full budget; default proportionally instead
        spec["warmup"] = schedule.full_instructions // 5
    return job_from_wire(spec)


def run_halving(
    client: ServiceClient,
    space: ExperimentSpace,
    schedule: HalvingSchedule,
    objective: Objective,
    priority: int = 0,
    timeout: float = 1800.0,
) -> Dict[str, Any]:
    """Successive halving over ``space`` on the service behind ``client``.

    Returns ``{"points", "rounds", "winner"}``: the point specs (index
    == point id), one report per rung run (``instructions``,
    ``candidates``, best-first ``results``, ``promoted`` point ids), and
    the best full-length point with its wire spec, score, digest, and
    ``job_id``.

    Every point's full-length job is built before anything is
    submitted, so a malformed spec or a space over :data:`MAX_POINTS`
    raises ``ValueError`` up front.  Raises :class:`OrchestrationError`
    when every candidate of a round fails, :class:`ServiceError` when
    the service refuses a rung (draining, backpressure beyond the
    client's retries) or goes away, and ``TimeoutError`` once the search
    has run ``timeout`` seconds.
    """
    points = space.points()
    if len(points) > MAX_POINTS:
        raise ValueError(
            f"space expands to {len(points)} points "
            f"(max {MAX_POINTS}); shrink an axis"
        )
    full_jobs = [_full_job(point, schedule) for point in points]
    deadline = time.monotonic() + timeout
    rungs = schedule.rungs()
    survivors = list(range(len(points)))
    rounds: List[Dict[str, Any]] = []
    for round_index, budget in enumerate(rungs):
        final = round_index == len(rungs) - 1
        if not final and len(survivors) == 1:
            continue  # nothing left to screen; jump straight to full length
        jobs = {
            index: full_jobs[index]
            if final
            else full_jobs[index].with_instructions(budget)
            for index in survivors
        }
        results = _run_rung(client, jobs, objective, priority, deadline)
        scored = [entry for entry in results if entry["state"] == "done"]
        report: Dict[str, Any] = {
            "round": round_index,
            "instructions": budget,
            "final": final,
            "candidates": len(survivors),
            "failed": len(survivors) - len(scored),
            "results": results,
        }
        rounds.append(report)
        if not scored:
            raise OrchestrationError(
                f"round {round_index}: every candidate failed"
            )
        if final:
            promoted = scored[:1]
        else:
            # top keep-fraction, then the cutoff (the best always lives)
            promoted = scored[: schedule.keep(len(scored))]
            promoted = [
                entry
                for entry in promoted
                if objective.meets(entry["score"], schedule.cutoff)
            ] or promoted[:1]
        survivors = [entry["point"] for entry in promoted]
        report["promoted"] = survivors

    best = rounds[-1]["results"][0]  # the full-length rung's best
    winner = {
        "point": best["point"],
        "spec": job_to_wire(full_jobs[best["point"]]),
        "score": best["score"],
        "metric": objective.metric,
        "digest": best["digest"],
        "job_id": best["job_id"],
    }
    return {"points": points, "rounds": rounds, "winner": winner}


def _run_rung(
    client: ServiceClient,
    jobs: Dict[int, SimJob],
    objective: Objective,
    priority: int,
    deadline: float,
) -> List[Dict[str, Any]]:
    """Submit one rung's jobs, wait for them, score the completions.

    Jobs go in one at a time: a ``429 quarantined`` answer drops only
    that point, where a batch ``POST /jobs`` stops at the first
    quarantined spec.  Entries come back best first (ties broken by
    point index, so ranking is deterministic), failures last.
    """
    accepted: Dict[int, Optional[Dict[str, Any]]] = {}
    for index, job in jobs.items():
        try:
            accepted[index] = client.submit(job, priority=priority)
        except ServiceError as exc:
            if exc.status != 429 or exc.body.get("code") != "quarantined":
                raise
            accepted[index] = None

    results: List[Dict[str, Any]] = []
    for index, submission in accepted.items():
        if submission is None:
            results.append(
                {"point": index, "state": "quarantined", "score": None}
            )
            continue
        record = client.wait(
            submission["id"], timeout=max(0.0, deadline - time.monotonic())
        )
        entry = {
            "point": index,
            "state": record["state"],
            "score": None,
            "job_id": record["id"],
            "digest": record["digest"],
        }
        if record["state"] == "done":
            result = SimResult.from_dict(record["result"])
            entry["score"] = objective.score(result)
        else:
            entry["error"] = record["error"]
        results.append(entry)
    results.sort(
        key=lambda entry: (
            entry["score"] is None,
            objective.sort_key(entry["score"] or 0.0),
            entry["point"],
        )
    )
    return results
