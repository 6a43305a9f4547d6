"""Multi-run statistics: means, confidence intervals, comparison tests.

The paper reports 5/10/20-run averages; these helpers let experiments and
benchmarks report the same along with dispersion, and let tests assert
"A beats B" with an explicit margin rather than on a single noisy run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..summation import left_sum
from .series import Series

# Two-sided t critical values at 95% for small samples (df 1..30).
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value (normal approximation beyond df=30)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96


@dataclass(frozen=True)
class Summary:
    """Sample summary: mean, standard deviation, 95% CI half-width."""

    n: int
    mean: float
    stdev: float
    ci95: float

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95


def summarize(values: Sequence[float]) -> Summary:
    """Mean / stdev / 95% confidence half-width of a sample."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    n = len(vals)
    mean = left_sum(vals) / n
    if n == 1:
        return Summary(1, mean, 0.0, 0.0)
    var = left_sum((v - mean) ** 2 for v in vals) / (n - 1)
    stdev = math.sqrt(var)
    ci95 = t_critical_95(n - 1) * stdev / math.sqrt(n)
    return Summary(n, mean, stdev, ci95)


def point_estimate(values: Sequence[float], scale: float = 1.0) -> Tuple[float, float]:
    """``(mean, ci95)`` of one sweep point's per-seed values, divided by ``scale``.

    The one rule for a grid point that lost every seed: it is NaN (mean
    and spread), so the campaign still assembles and a claim about the
    point fails instead of the assembly raising.
    """
    vals = list(values)
    if not vals:
        return math.nan, math.nan
    return left_sum(vals) / len(vals) / scale, summarize([v / scale for v in vals]).ci95


def sweep(
    label: str,
    xs: Iterable[float],
    points: Iterable[Sequence[object]],
    field: Optional[str] = None,
    scale: float = 1.0,
    spread: bool = True,
) -> Series:
    """One curve of a sweep: the :func:`point_estimate` of each x's values.

    ``points`` holds, per x, the surviving seeds' values (their ``field``
    when the values are dicts); each point is their mean over ``scale``,
    with the 95% half-width as ``y_err`` unless ``spread`` is off.
    """
    ys: List[float] = []
    errs: List[float] = []
    for vals in points:
        y, err = point_estimate(
            [float(v[field]) for v in vals] if field else vals, scale
        )
        ys.append(y)
        errs.append(err)
    return Series(label, list(xs), ys, y_err=errs if spread else None)
