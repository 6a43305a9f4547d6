"""Unit tests for the repro.obs.metrics instruments, on a hand-driven clock."""

from __future__ import annotations

import pytest

from repro.obs.metrics import WindowRateMeter


class FakeClock:
    """A manually advanced clock for driving metrics in unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestWindowRateMeter:
    def test_window_semantics(self):
        clock = FakeClock()
        m = WindowRateMeter(clock=clock, window=10.0)
        m.add(1000)
        clock.now = 5.0
        m.add(1000)
        clock.now = 10.0
        assert m.rate() == pytest.approx(200.0, rel=0.05)
        clock.now = 100.0
        assert m.rate() == 0.0
        assert m.total_bytes == 2000

