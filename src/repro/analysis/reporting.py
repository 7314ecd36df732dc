"""Report formatting: the paper's tables and figure series as text/CSV.

The experiment drivers return plain data; this module renders it the way
the paper presents it — Table 1's parameter/result grid, and per-figure
``(x, series…)`` columns — so the benchmark harness can print rows a reader
can compare side by side with the paper.
"""

from __future__ import annotations

import io
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.model.task import TaskSet

__all__ = [
    "format_table",
    "format_table1",
    "series_to_csv",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("-" * len(line) + "\n")
    for row in str_rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_table1(taskset: TaskSet, latencies: Mapping[str, float],
                  paper_latencies: Optional[Mapping[str, float]] = None) -> str:
    """Render Table 1: per-subtask parameters and optimization results.

    When ``paper_latencies`` is given, a "Paper lat." row is included for
    side-by-side comparison.
    """
    sections = []
    for task in taskset.tasks:
        headers = ["", *task.subtask_names]
        rows: List[List] = [
            ["Resource"] + [task.subtask(s).resource
                            for s in task.subtask_names],
            ["Exec time"] + [task.subtask(s).exec_time
                             for s in task.subtask_names],
            ["Latency"] + [latencies[s] for s in task.subtask_names],
        ]
        if paper_latencies is not None:
            rows.append(
                ["Paper lat."] + [paper_latencies.get(s, float("nan"))
                                  for s in task.subtask_names]
            )
        _path, crit = task.critical_path(latencies)
        rows.append(["Crit.Time", task.critical_time])
        rows.append(["Crit.Path", crit])
        sections.append(
            format_table(headers, rows, title=f"TASK {task.name}")
        )
    return "\n".join(sections)


def series_to_csv(columns: Mapping[str, Sequence]) -> str:
    """Render named columns as CSV (figure series for offline plotting)."""
    names = list(columns.keys())
    length = max((len(v) for v in columns.values()), default=0)
    out = io.StringIO()
    out.write(",".join(names) + "\n")
    for i in range(length):
        cells = []
        for name in names:
            col = columns[name]
            cells.append(_fmt(col[i]) if i < len(col) else "")
        out.write(",".join(cells) + "\n")
    return out.getvalue()
