"""Unit tests for the unified metrics layer (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    WindowRateMeter,
)


class FakeClock:
    """A manually advanced clock for driving metrics in unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("tcp.retransmissions")
        b = reg.counter("tcp.retransmissions")
        assert a is b
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted_and_contains(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "missing" not in reg
        assert reg.get("missing") is None

    def test_shared_clock(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        counter = reg.counter("c", record_history=True)
        clock.now = 3.0
        counter.add(10)
        assert counter.history == [(3.0, 10)]

    def test_snapshot_and_rows(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["a"] == {"total": 2.0}
        assert snap["g"]["value"] == 7
        rows = reg.rows()
        assert [(name, kind) for name, kind, _ in rows] == [
            ("a", "counter"), ("g", "gauge"),
        ]

    def test_all_factory_kinds(self):
        reg = MetricsRegistry()
        assert reg.window_rate("w").kind == "window_rate"
        assert reg.series("s").kind == "series"


class TestGauge:
    def test_set_keeps_last_value(self):
        g = Gauge("queue")
        g.set(10)
        g.set(15)
        g.set(12)
        assert g.value == 12
        assert g.updates == 3

    def test_history(self):
        clock = FakeClock()
        g = Gauge("cwnd", clock=clock, record_history=True)
        g.set(1)
        clock.now = 2.0
        g.set(4)
        assert g.history == [(0.0, 1), (2.0, 4)]


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


class TestSimClock:
    """The simulator's registry reads the virtual clock."""

    def test_sim_metrics_registry_shares_clock(self):
        from repro.sim import Simulator

        sim = Simulator()
        counter = sim.metrics.counter("events", record_history=True)
        sim.schedule(1.0, lambda: counter.add(1))
        sim.run()
        assert counter.history == [(1.0, 1.0)]
        assert sim.metrics.counter("events") is counter
