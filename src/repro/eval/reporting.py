"""Human-readable tables and machine-readable JSON output for benchmarks.

Every benchmark script renders its results twice: a fixed-width text table
printed to stdout (the "same rows the paper reports") and a JSON file so the
results can be post-processed or plotted without re-running the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    """Render one cell: floats get 3 significant decimals, None nothing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4g}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_table(
    records: Sequence[Dict],
    columns: Sequence[str],
    *,
    title: Optional[str] = None,
    headers: Optional[Dict[str, str]] = None,
) -> str:
    """Render ``records`` as a fixed-width text table.

    Parameters
    ----------
    records:
        List of dictionaries (missing keys and ``None`` render as empty
        cells).
    columns:
        Which keys to show, in order.
    title:
        Optional title line printed above the table.
    headers:
        Optional mapping from column key to display name.
    """
    headers = headers or {}
    display = [headers.get(col, col) for col in columns]
    rows: List[List[str]] = [
        [format_value(record.get(col, "")) for col in columns] for record in records
    ]
    widths = [
        max(len(display[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(columns))
    ]

    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(name.ljust(width) for name, width in zip(display, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def save_json(records, path) -> Path:
    """Write benchmark records to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True, default=str)
    return path


def print_and_save(
    records: Sequence[Dict],
    columns: Sequence[str],
    *,
    title: str,
    json_path=None,
    headers: Optional[Dict[str, str]] = None,
) -> str:
    """Render, print, optionally persist, and return the table text."""
    table = render_table(records, columns, title=title, headers=headers)
    print(table)
    if json_path is not None:
        save_json(list(records), json_path)
    return table
