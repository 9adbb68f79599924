"""Figure 4: redundancy in cascaded TAGE-like history tables.

Run the naive two-table design (``PC+Address`` table + ``PC+Offset``
table, every footprint inserted into both) and measure, per workload,
the fraction of predicting lookups for which both tables offer an
*identical* footprint.  The paper reports 26 % (SAT Solver) to 93 %
(Mix 2) — the redundancy Bingo's unified table eliminates by storing
each footprint once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import format_table
from repro.core.events import EventKind
from repro.experiments.common import cached_run, default_params
from repro.sim.engine import SimulationParams
from repro.workloads.registry import WORKLOAD_NAMES

_DUAL_EVENTS = (EventKind.PC_ADDRESS, EventKind.PC_OFFSET)


def run(
    workloads: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
) -> List[Dict[str, object]]:
    """One row per workload: the redundancy fraction."""
    workloads = list(workloads) if workloads is not None else list(WORKLOAD_NAMES)
    params = params if params is not None else default_params()
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        result = cached_run(
            workload,
            "multi-event",
            params,
            prefetcher_kwargs={
                "kinds": _DUAL_EVENTS,
                "measure_redundancy": True,
            },
        )
        rows.append(
            {
                "workload": workload,
                "redundancy": result.prefetcher_ratio(
                    "redundant_lookups", "redundancy_lookups"
                ),
            }
        )
    rows.append(
        {
            "workload": "average",
            "redundancy": arithmetic_mean([r["redundancy"] for r in rows]),
        }
    )
    return rows


def format_results(rows: List[Dict[str, object]]) -> str:
    return format_table(
        rows,
        columns=["workload", "redundancy"],
        title="Fig. 4 — redundancy of cascaded long/short history tables",
        percent_columns=["redundancy"],
    )


if __name__ == "__main__":
    print(format_results(run()))
