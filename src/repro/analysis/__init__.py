"""Result containers and reporting for experiments."""

from .report import ascii_chart
from .runreport import (
    event_counts,
    group_by_layer,
    render_report,
    report_from_jsonl,
)
from .stats import (
    Summary,
    point_estimate,
    summarize,
    sweep,
    t_critical_95,
)
from .series import ExperimentResult, Series, average_runs

__all__ = [
    "ExperimentResult",
    "Series",
    "average_runs",
    "ascii_chart",
    "event_counts",
    "group_by_layer",
    "render_report",
    "report_from_jsonl",
    "Summary",
    "point_estimate",
    "summarize",
    "sweep",
    "t_critical_95",
]
