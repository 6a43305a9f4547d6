"""Text rendering of experiment results: ASCII charts.

Benchmarks and the CLI print these so a terminal user can eyeball the
*shape* of each reproduced figure — which is exactly what the reproduction
must preserve — without leaving the console.
"""

from __future__ import annotations

from .series import ExperimentResult

MARKERS = "*o+x#@%&"
#: Plot area in characters.
WIDTH = 64
HEIGHT = 16


def ascii_chart(result: ExperimentResult) -> str:
    """Render the result's series as a shared-axes ASCII scatter chart."""
    series = [s for s in result.series if len(s) > 0]
    if not series:
        return f"== {result.figure} == (no data)"
    xs = [x for s in series for x in s.x]
    if any(isinstance(x, str) for x in xs):
        return f"== {result.figure} == (named x values: no chart, see the table)"
    ys = [y for s in series for y in s.y]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    y_min = min(y_min, 0.0)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    for index, s in enumerate(series):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in zip(s.x, s.y):
            col = int((x - x_min) / x_span * (WIDTH - 1))
            row = HEIGHT - 1 - int((y - y_min) / y_span * (HEIGHT - 1))
            cell = grid[row][col]
            grid[row][col] = marker if cell in (" ", marker) else "?"

    lines = [f"== {result.figure}: {result.title} =="]
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:10.1f} |"
        elif row_index == HEIGHT - 1:
            label = f"{y_min:10.1f} |"
        else:
            label = " " * 10 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 11 + "+" + "-" * WIDTH)
    lines.append(" " * 12 + f"{_fmt(x_min)}".ljust(WIDTH - 8) + f"{_fmt(x_max)}")
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(f"   [{result.x_label} -> {result.y_label}]  {legend}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value and abs(value) < 1e-3:
        return f"{value:.1e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"
