"""Tests for the multi-run statistics."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Summary,
    summarize,
    t_critical_95,
)


class TestStats:
    def test_summarize_basic(self):
        s = summarize([10.0, 12.0, 11.0, 13.0])
        assert s.n == 4
        assert s.mean == pytest.approx(11.5)
        assert s.low < s.mean < s.high

    def test_single_sample(self):
        s = summarize([5.0])
        assert s == Summary(1, 5.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_t_critical(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_critical_95(0)
