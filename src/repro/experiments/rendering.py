"""ASCII rendering: tables and horizontal bar charts for the regenerators."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Simple fixed-width table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(list(headers)), sep]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def render_bars(items: Sequence[Tuple[str, float]], width: int = 40,
                unit: str = "", fmt: str = "{:.2f}") -> str:
    """Horizontal bar chart (one bar per item, scaled to the maximum)."""
    if not items:
        return "(empty)"
    peak = max(value for _, value in items) or 1.0
    label_w = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        bar = "#" * max(1 if value > 0 else 0, int(round(value / peak * width)))
        lines.append(f"{label.ljust(label_w)} | {bar.ljust(width)} "
                     f"{fmt.format(value)}{unit}")
    return "\n".join(lines)
