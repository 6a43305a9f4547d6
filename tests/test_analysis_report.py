"""Tests for result rendering and analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentResult,
    Series,
    ascii_chart,
    average_runs,
)


def result_with(series):
    return ExperimentResult(
        figure="Fig T", title="Test", x_label="x", y_label="y", series=series
    )


class TestAsciiChart:
    def test_renders_all_series_markers(self):
        r = result_with([
            Series("alpha", [0, 1, 2], [0.0, 5.0, 10.0]),
            Series("beta", [0, 1, 2], [10.0, 5.0, 0.0]),
        ])
        chart = ascii_chart(r)
        assert "Fig T" in chart
        assert "* alpha" in chart
        assert "o beta" in chart
        body = "\n".join(chart.split("\n")[1:-3])  # grid rows only
        assert "*" in body and "o" in body

    def test_empty_result(self):
        r = result_with([])
        assert "(no data)" in ascii_chart(r)

    def test_single_point_series(self):
        r = result_with([Series("solo", [5.0], [7.0])])
        chart = ascii_chart(r)
        assert "solo" in chart

    def test_constant_series_no_div_by_zero(self):
        r = result_with([Series("flat", [0, 1, 2], [3.0, 3.0, 3.0])])
        chart = ascii_chart(r)
        assert "flat" in chart

    def test_overlapping_points_marked_ambiguous(self):
        r = result_with([
            Series("a", [0, 1], [1.0, 2.0]),
            Series("b", [0, 1], [1.0, 5.0]),
        ])
        chart = ascii_chart(r)
        assert "?" in chart

    def test_named_x_values_get_no_chart(self):
        r = result_with([Series("a", ["wired_small", "embed_wp2p"], [1.0, 2.0])])
        assert ascii_chart(r) == "== Fig T == (named x values: no chart, see the table)"


class TestHelpers:
    def test_average_runs(self):
        assert average_runs([[1.0, 2.0], [3.0, 4.0]]) == [2.0, 3.0]
        assert average_runs([]) == []
        with pytest.raises(ValueError):
            average_runs([[1.0], [1.0, 2.0]])
