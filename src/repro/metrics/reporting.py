"""Plain-text table/series rendering for experiment output.

Every benchmark prints the same rows/series the paper reports; these
helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            columns[i].append(_fmt(cell))
    widths = [max(len(cell) for cell in col) for col in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(cell).ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
