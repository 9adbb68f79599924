"""Workload registry: Table II by name, plus the stress suite."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads.base import Workload
from repro.workloads.mixes import MIX_COMPOSITIONS, make_mix
from repro.workloads.scientific import em3d
from repro.workloads.server import data_serving, sat_solver, streaming, zeus
from repro.workloads.stress import oscillate, zipf

#: Version of the workload generators' *output*.  Bump whenever any
#: registered generator's record stream changes for a given (name, seed,
#: scale) — it is folded into every compiled-trace cache key
#: (:mod:`repro.sim.compile`), so stale packed traces can never replay.
STREAM_VERSION = 1

_FACTORIES: Dict[str, Callable[[float], Workload]] = {
    "data_serving": data_serving,
    "sat_solver": sat_solver,
    "streaming": streaming,
    "zeus": zeus,
    "em3d": em3d,
    "zipf": zipf,
    "oscillate": oscillate,
}
for _mix_name in MIX_COMPOSITIONS:
    # bind the loop variable via a default argument
    _FACTORIES[_mix_name] = lambda scale=1.0, name=_mix_name: make_mix(name, scale)

#: Table II's row order, used by every figure.  Deliberately does NOT
#: include the stress suite: experiments iterate WORKLOAD_NAMES, and the
#: paper's matrix must stay the paper's matrix.
WORKLOAD_NAMES = (
    "data_serving",
    "sat_solver",
    "streaming",
    "zeus",
    "em3d",
    "mix1",
    "mix2",
    "mix3",
    "mix4",
    "mix5",
)

#: off-matrix stress generators (:mod:`repro.workloads.stress`), built
#: to separate replacement policies
STRESS_WORKLOAD_NAMES = ("zipf", "oscillate")

#: the server + scientific subset (used by a few analyses)
SERVER_WORKLOADS = ("data_serving", "sat_solver", "streaming", "zeus")


def available_workloads() -> List[str]:
    """Everything resolvable by name: Table II first, then the stress suite."""
    return list(WORKLOAD_NAMES) + list(STRESS_WORKLOAD_NAMES)


def register_workload(
    name: str, factory: Callable[[float], Workload], replace: bool = False
) -> None:
    """Make a custom workload resolvable by name.

    Named resolution is what lets a workload travel inside a picklable
    :class:`repro.sim.executor.SimJob` — across executor worker
    processes and over the :mod:`repro.serve` HTTP boundary.  The name
    is not added to Table II's ``WORKLOAD_NAMES`` listing; it only
    becomes valid input to :func:`make_workload`.  Registrations are
    per-process: a ``spawn``-context worker or a separately started
    service daemon must perform the same registration (e.g. from an
    imported plugin module) before it can run the job.
    """
    key = name.lower()
    if not replace and key in _FACTORIES:
        raise ValueError(f"workload {name!r} is already registered")
    _FACTORIES[key] = factory


def make_workload(name: str, seed: int = 1234, scale: float = 1.0) -> Workload:
    """Build a Table II workload by name.

    ``scale`` multiplies the workload's working-set sizes; the experiment
    drivers pair a reduced scale with a proportionally reduced hierarchy
    (see :mod:`repro.experiments.common`) so capacity ratios — and hence
    miss behaviour — match the paper's full-size system at tractable
    simulation lengths.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from None
    workload = factory(scale)
    return workload.with_seed(seed) if seed != workload.seed else workload
