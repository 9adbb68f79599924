"""Plain-text table rendering for the experiment drivers.

Every experiment prints its figure/table as an aligned ASCII table so a
bench run's output can be diffed against EXPERIMENTS.md by eye.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _render(value: Cell, percent: bool) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if percent:
        return f"{value * 100:.1f}%"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, Cell]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    percent_columns: Sequence[str] = (),
) -> str:
    """Render dict-rows as an aligned ASCII table.

    ``columns`` fixes the column order (defaults to first row's keys);
    ``percent_columns`` are formatted as percentages, matching how the
    paper's y-axes read.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    percent = set(percent_columns)
    table = [[str(col) for col in columns]]
    for row in rows:
        table.append(
            [_render(row.get(col), col in percent) for col in columns]
        )
    widths = [
        max(len(line[i]) for line in table) for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header, *body = table
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)
