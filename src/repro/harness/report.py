"""Formatting of experiment result rows.

Every experiment driver returns a list of flat dictionaries (one per scheme
per x-axis point).  ``format_rows`` renders them as an aligned text table —
the same series the paper plots — and ``rows_to_csv`` produces a CSV string
for further processing/plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Sequence

Row = Dict[str, object]


def _columns(rows: Sequence[Row]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_rows(rows: Sequence[Row], title: str = "") -> str:
    """Render rows as an aligned text table (empty string for no rows)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = _columns(rows)
    rendered = [[_render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(line)))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Row]) -> str:
    """Render rows as CSV text (header row first).

    Serialized through the stdlib :mod:`csv` writer so values containing
    commas, quotes or newlines (e.g. ``processors="8->16"``-style labels or
    parenthesised budget markers) are quoted correctly instead of corrupting
    the column structure.
    """
    if not rows:
        return ""
    columns = _columns(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_render(row.get(column, "")) for column in columns])
    return buffer.getvalue()
