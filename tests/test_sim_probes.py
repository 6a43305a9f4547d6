"""Measurement on the simulator clock.

The :mod:`repro.obs.metrics` counters, rate meters and time series as
the protocol layers build them: bound to ``sim.now`` and advanced by
scheduled events rather than a hand-set clock.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import Counter, TimeSeries, WindowRateMeter, mean
from repro.sim import Simulator


class TestCounter:
    def test_accumulates(self, sim):
        c = Counter("bytes", clock=lambda: sim.now)
        c.add(10)
        c.add(5)
        assert c.total == 15

    def test_history_recording(self):
        sim = Simulator()
        c = Counter("dl", clock=lambda: sim.now, record_history=True)
        sim.schedule(1.0, lambda: c.add(100))
        sim.schedule(2.0, lambda: c.add(50))
        sim.run()
        assert c.history == [(1.0, 100), (2.0, 150)]
        assert c.value_at(0.5) == 0
        assert c.value_at(1.0) == 100
        assert c.value_at(5.0) == 150

    def test_value_at_requires_history(self, sim):
        c = Counter("x", clock=lambda: sim.now)
        with pytest.raises(ValueError):
            c.value_at(0)

    def test_reset(self, sim):
        c = Counter("x", clock=lambda: sim.now, record_history=True)
        c.add(1)
        c.reset()
        assert c.total == 0
        assert c.history == []


class TestTimeSeries:
    def test_records_and_iterates(self):
        ts = TimeSeries("x")
        ts.record(1.0, 10)
        ts.record(2.0, 20)
        assert list(ts) == [(1.0, 10), (2.0, 20)]
        assert ts.last() == (2.0, 20)
        assert len(ts) == 2

    def test_rejects_time_regression(self):
        ts = TimeSeries()
        ts.record(2.0, 1)
        with pytest.raises(ValueError):
            ts.record(1.0, 2)

    def test_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), t)
        w = ts.window(3.0, 6.0)
        assert w.times == [3.0, 4.0, 5.0]

    def test_bucketed_counts(self):
        ts = TimeSeries()
        for t in (0.1, 0.2, 1.5, 2.9):
            ts.record(t, 1)
        counts = ts.bucketed_counts(1.0, start=0.0, end=3.0)
        assert counts == [(0.0, 2), (1.0, 1), (2.0, 1)]

    def test_bucketed_counts_invalid_bucket(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.bucketed_counts(0)

    def test_empty_series_last_is_none(self):
        assert TimeSeries().last() is None


class TestRateMeter:
    def test_rate_over_window(self):
        sim = Simulator()
        meter = WindowRateMeter(clock=lambda: sim.now, window=10.0)
        sim.schedule(0.0, lambda: meter.add(1000))
        sim.schedule(5.0, lambda: meter.add(1000))
        sim.schedule(10.0, sim.stop)
        sim.run(until=10.0)
        # 2000 bytes over the 10 s window
        assert meter.rate() == pytest.approx(200.0, rel=0.05)

    def test_old_samples_expire(self):
        sim = Simulator()
        meter = WindowRateMeter(clock=lambda: sim.now, window=5.0)
        sim.schedule(0.0, lambda: meter.add(5000))
        sim.run(until=100.0)
        assert meter.rate() == 0.0
        assert meter.total_bytes == 5000

    def test_young_meter_uses_observed_span(self):
        sim = Simulator()
        meter = WindowRateMeter(clock=lambda: sim.now, window=20.0)
        sim.schedule(0.0, lambda: meter.add(100))
        sim.schedule(1.0, lambda: meter.add(100))
        sim.run(until=1.0)
        # 200 bytes over 1 observed second, not over the whole window
        assert meter.rate() == pytest.approx(200.0, rel=0.1)

    def test_invalid_window(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            WindowRateMeter(clock=lambda: sim.now, window=0)


def test_mean():
    assert mean([1, 2, 3]) == 2
    assert mean([]) == 0.0
