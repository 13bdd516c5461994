"""Formatting of experiment result rows.

Every experiment driver returns a list of flat dictionaries (one per scheme
per x-axis point).  ``format_rows`` renders them as an aligned text table —
the same series the paper plots — and ``rows_to_csv`` produces a CSV string
for further processing/plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Sequence

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


def print_figure(rows: Sequence[Row], title: str) -> None:
    """Print a figure's table to stdout (used by benchmarks and examples)."""
    print()
    print(format_rows(rows, title=title))
    print()


def format_kernel_stats(stats: Dict[str, object], label: str = "") -> str:
    """One-line rendering of annotation-kernel telemetry.

    Accepts either a :meth:`repro.bdd.manager.BDDManager.gc_stats` mapping or
    the flattened ``kernel_*`` columns of a phase row; used for ad-hoc
    diagnostics.  A part whose key is absent is left out: a ``gc_stats()``
    mapping has no phase clock, and ``routing=0.0000s`` for it would report a
    measurement nobody took.
    """
    # (label, accepted key names, format)
    layout = (
        ("table", ("table_size", "kernel_table_size"), "{}"),
        ("peak", ("peak_table_size", "kernel_peak_table"), "{}"),
        ("reclaimed", ("nodes_reclaimed", "kernel_reclaimed"), "{}"),
        ("gc_passes", ("gc_passes", "kernel_gc_passes"), "{}"),
        ("gc_pause", ("gc_pause_s", "kernel_gc_pause_s"), "{:.4f}s"),
        ("kernel", ("kernel_time_s",), "{:.4f}s"),
        ("routing", ("routing_time_s",), "{:.4f}s"),
        ("operator", ("operator_time_s",), "{:.4f}s"),
        ("net", ("net_time_s",), "{:.4f}s"),
    )
    parts = []
    for name, keys, fmt in layout:
        key = next((key for key in keys if key in stats), None)
        if key is not None:
            parts.append(f"{name}=" + fmt.format(stats[key]))
    prefix = f"{label}: " if label else ""
    return prefix + " ".join(parts)
