"""Plain-text rendering of tables and figure series.

The benchmark harness prints the same rows and series the paper
reports; these helpers keep the formatting consistent across benches,
the CLI and EXPERIMENTS.md.  Stdlib-only, so any layer may import it
(also reachable as :mod:`repro.evaluation.report`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import EvaluationError


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table.

    Floats are shown with two decimals; everything else via ``str``.
    """
    if not headers:
        raise EvaluationError("a table needs headers")
    formatted_rows = [
        [_format_cell(value) for value in row] for row in rows
    ]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise EvaluationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in formatted_rows))
        if formatted_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str, points: Sequence[tuple[object, float]], unit: str = ""
) -> str:
    """One figure series as ``name: x=value`` lines plus an ASCII bar."""
    if not points:
        raise EvaluationError("a series needs points")
    peak = max(abs(value) for _, value in points) or 1.0
    lines = [f"{name}{f' ({unit})' if unit else ''}:"]
    for x, value in points:
        bar = "#" * max(1, int(round(24 * abs(value) / peak)))
        lines.append(f"  {str(x):>8}  {value:8.3f}  {bar}")
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
