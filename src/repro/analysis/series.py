"""Result containers: series and experiment results.

Every experiment returns an :class:`ExperimentResult` holding one or more
:class:`Series` — the same rows/curves the paper plots — plus the paper's
qualitative expectation, so benches can print a side-by-side and tests can
assert the *shape* (who wins, where the peak/crossover is) rather than
absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..summation import left_sum


@dataclass
class Series:
    """One labelled curve: paired x/y values.

    ``y_err`` optionally carries the per-point spread across seeds (the
    95% CI half-width the runner computes); when present, tables render
    each value as ``mean ± err``.
    """

    label: str
    x: List[float]
    y: List[float]
    y_err: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")
        if self.y_err is not None and len(self.y_err) != len(self.y):
            raise ValueError("y_err must have the same length as y")

    def __len__(self) -> int:
        return len(self.x)

    def y_at(self, x_value: float) -> float:
        """y for an exact x (raises KeyError if absent)."""
        for xv, yv in zip(self.x, self.y):
            if xv == x_value:
                return yv
        raise KeyError(f"x={x_value!r} not in series {self.label!r}")

    def err_at(self, x_value: float) -> Optional[float]:
        """Spread at an exact x, or ``None`` when no spread is recorded."""
        if self.y_err is None:
            return None
        for xv, err in zip(self.x, self.y_err):
            if xv == x_value:
                return err
        raise KeyError(f"x={x_value!r} not in series {self.label!r}")

    @property
    def peak_x(self) -> float:
        """x of the maximum y."""
        if not self.x:
            raise ValueError("empty series")
        best = max(range(len(self.y)), key=lambda i: self.y[i])
        return self.x[best]


@dataclass
class ExperimentResult:
    """A reproduced figure: measured series plus paper context."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    paper_expectation: str = ""
    notes: str = ""
    parameters: Dict[str, object] = field(default_factory=dict)

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.figure}")

    # ------------------------------------------------------------------
    def table(self, float_fmt: str = "{:.2f}") -> str:
        """Render the result as an aligned text table (one row per x)."""
        header = [self.x_label] + [s.label for s in self.series]
        xs: List[float] = []
        for s in self.series:
            for xv in s.x:
                if xv not in xs:
                    xs.append(xv)
        rows: List[List[str]] = []
        for xv in xs:
            row = [_fmt_x(xv)]
            for s in self.series:
                try:
                    cell = float_fmt.format(s.y_at(xv))
                    err = s.err_at(xv)
                except KeyError:
                    row.append("-")
                    continue
                if err is not None and err > 0:
                    cell += " ±" + float_fmt.format(err)
                row.append(cell)
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"== {self.figure}: {self.title} ==",
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def _fmt_x(x: float) -> str:
    if isinstance(x, float) and x == int(x) and abs(x) < 1e9:
        return str(int(x))
    if isinstance(x, float) and 0 < abs(x) < 1e-3:
        return f"{x:.1e}"
    return str(x)


def average_runs(run_values: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise mean across runs (all runs must be the same length)."""
    runs = [list(r) for r in run_values]
    if not runs:
        return []
    length = len(runs[0])
    if any(len(r) != length for r in runs):
        raise ValueError("runs have differing lengths")
    return [left_sum(r[i] for r in runs) / len(runs) for i in range(length)]
