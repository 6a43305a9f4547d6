"""Tests for the tracing bus, sinks, kernel profiler, and run reports."""

from __future__ import annotations

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    TraceBus,
    read_jsonl,
)
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _no_global_sinks():
    """Tests must not leak globally installed default sinks."""
    tracing.uninstall()
    yield
    tracing.uninstall()


class TestTraceBus:
    def test_disabled_by_default_and_emits_nothing(self):
        bus = TraceBus()
        assert not bus.enabled
        bus.event("tcp", "rto", conn="a")  # no sink: must be a no-op
        assert bus.events_emitted == 0

    def test_attach_enables_detach_disables(self):
        bus = TraceBus()
        sink = bus.attach(RingBufferSink())
        assert bus.enabled
        bus.detach(sink)
        assert not bus.enabled

    def test_event_records_time_layer_fields(self):
        clock = [0.0]
        bus = TraceBus(clock=lambda: clock[0])
        sink = bus.attach(RingBufferSink())
        clock[0] = 4.25
        bus.event("wp2p", "lihd_update", upload_cap=1234.0)
        assert sink.records == [
            {"t": 4.25, "layer": "wp2p", "event": "lihd_update",
             "upload_cap": 1234.0}
        ]

    def test_layer_filter(self):
        bus = TraceBus()
        sink = bus.attach(RingBufferSink(), layers=["tcp"])
        bus.event("tcp", "rto")
        bus.event("bittorrent", "choke_round")
        assert [r["layer"] for r in sink.records] == ["tcp"]

    def test_fan_out_to_multiple_sinks(self):
        bus = TraceBus()
        a = bus.attach(RingBufferSink())
        b = bus.attach(RingBufferSink())
        bus.event("sim", "stop")
        assert len(a) == len(b) == 1

    def test_null_sink_keeps_bus_enabled(self):
        bus = TraceBus()
        bus.attach(NullSink())
        bus.event("sim", "stop")
        assert bus.enabled
        assert bus.events_emitted == 1


class TestRingBufferSink:
    def test_capacity_bound(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.write({"t": float(i), "layer": "sim", "event": "e"})
        assert len(sink) == 3
        assert sink.total_written == 5
        assert sink.records[0]["t"] == 2.0

    def test_query_helpers(self):
        sink = RingBufferSink()
        sink.write({"t": 0, "layer": "tcp", "event": "rto"})
        sink.write({"t": 1, "layer": "wp2p", "event": "am_state"})
        assert len(sink.by_layer("tcp")) == 1
        assert len(sink.matching("am_state")) == 1
        sink.clear()
        assert len(sink) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJSONLRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JSONLSink(path)
        records = [
            {"t": 0.5, "layer": "tcp", "event": "rto", "cwnd": 2920},
            {"t": 1.0, "layer": "wp2p", "event": "am_state", "status": "mature"},
        ]
        for record in records:
            sink.write(record)
        sink.close()
        assert read_jsonl(path) == records
        assert sink.records_written == 2

    def test_lazy_open_writes_nothing_without_events(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JSONLSink(str(path))
        sink.close()
        assert not path.exists()


class TestGlobalInstall:
    def test_new_simulators_pick_up_default_sinks(self):
        sink = RingBufferSink()
        tracing.install(sink)
        sim = Simulator()
        assert sim.trace.enabled
        sim.schedule(1.0, lambda: None)
        sim.run()
        layers = {r["layer"] for r in sink.records}
        assert layers == {"sim"}

    def test_uninstall_stops_affecting_new_simulators(self):
        tracing.install(RingBufferSink())
        tracing.uninstall()
        assert not Simulator().trace.enabled

    def test_capture_context_manager(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with tracing.capture(path=path):
            sim = Simulator()
            sim.schedule(0.5, sim.stop)
            sim.run()
        assert not tracing.installed()
        events = read_jsonl(path)
        assert {r["event"] for r in events} >= {"run_begin", "stop"}


class TestZeroOverheadWhenDisabled:
    def test_kernel_emits_nothing_without_sinks(self):
        sim = Simulator()
        for i in range(50):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.trace.events_emitted == 0
        assert sim.profiler is None

    def test_instrumented_paths_silent_without_sinks(self):
        # A full traffic-bearing run with tracing disabled must emit zero
        # events through any of the wired layers.
        from repro.experiments.base import run_transfer

        stats = run_transfer(seed=1, ber=1e-5, bidirectional=True, duration=5.0)
        assert stats.delivered_down > 0

    def test_event_is_module_noop_while_disabled(self):
        # The fast path is a *precomputed guard*: with no sink attached,
        # bus.event must be the module-level no-op (no bound method, no
        # enabled check per call).  Attach swaps in _emit, detach swaps
        # the no-op back.  Pinned so a refactor cannot quietly turn the
        # obs-off path back into per-event dispatch overhead.
        bus = TraceBus()
        assert bus.event is tracing._noop_event
        sink = bus.attach(RingBufferSink())
        assert bus.event.__func__ is TraceBus._emit
        bus.detach(sink)
        assert bus.event is tracing._noop_event
        assert Simulator().trace.event is tracing._noop_event

    def test_detached_sink_sees_zero_calls_from_a_run(self):
        # A sink that was attached and then detached must observe zero
        # writes during a subsequent traffic-bearing run: the obs-off
        # fast path performs zero sink calls, not merely zero records.
        class CountingSink:
            calls = 0

            def write(self, record):
                CountingSink.calls += 1

            def close(self):
                pass

        sim = Simulator()
        sink = sim.trace.attach(CountingSink())
        sim.trace.detach(sink)
        for i in range(100):
            sim.schedule(float(i) * 0.1, lambda: None)
        sim.run()
        assert CountingSink.calls == 0
        assert sim.trace.events_emitted == 0


class TestKernelProfiler:
    def test_profiler_aggregates_handler_costs(self):
        sim = Simulator()
        prof = sim.enable_profiling()

        def busy():
            sum(range(200))

        for i in range(10):
            sim.schedule(float(i), busy)
        sim.run(until=20.0)
        assert prof.events == 10
        assert prof.sim_seconds == pytest.approx(20.0)
        assert prof.events_per_second > 0
        assert prof.wall_per_sim_second >= 0
        top = prof.top_handlers()
        assert top and top[0].calls == 10
        assert "busy" in top[0].label
        report = prof.format_report()
        assert "events processed : 10" in report
        assert "busy" in report

    def test_bound_methods_aggregate_per_class(self):
        from repro.obs.profiling import _callback_label

        class Thing:
            def handler(self):
                pass

        assert _callback_label(Thing().handler) == "Thing.handler"

    def test_disable_profiling(self):
        sim = Simulator()
        sim.enable_profiling()
        sim.disable_profiling()
        assert sim.profiler is None


class TestCrossLayerTrace:
    def test_traced_swarm_run_covers_four_layers(self, tmp_path):
        """A wP2P swarm run must log sim, tcp, bittorrent, and wp2p events."""
        from repro.bittorrent.swarm import SwarmScenario
        from repro.wp2p import WP2PClient, WP2PConfig

        path = str(tmp_path / "swarm.jsonl")
        with tracing.capture(path=path):
            sc = SwarmScenario(
                seed=3, file_size=512 * 1024, piece_length=65_536
            )
            sc.add_wired_peer("seed", complete=True)
            cfg = WP2PConfig(
                am_enabled=True, lihd_u_max=50_000.0, lihd_interval=2.0
            )
            sc.add_wireless_peer(
                "mobile", rate=100_000, ber=1e-5,
                client_factory=WP2PClient, config=cfg,
            )
            sc.start_all()
            sc.run(until=40.0)
        events = read_jsonl(path)
        layers = {r["layer"] for r in events}
        assert {"sim", "tcp", "bittorrent", "wp2p"} <= layers
        # every record is a well-formed structured event
        for record in events:
            assert set(record) >= {"t", "layer", "event"}

    def test_topology_trace_path(self, tmp_path):
        from repro.experiments.base import run_transfer

        path = str(tmp_path / "transfer.jsonl")
        with tracing.capture(path=path):
            run_transfer(seed=1, ber=1e-5, bidirectional=True, duration=5.0)
        events = read_jsonl(path)
        assert {r["layer"] for r in events} >= {"sim", "tcp"}


class TestRunReport:
    def test_render_report_sections(self):
        from repro.analysis.runreport import render_report

        events = [
            {"t": 0.0, "layer": "sim", "event": "run_begin"},
            {"t": 1.0, "layer": "tcp", "event": "rto", "cwnd": 1460},
            {"t": 1.5, "layer": "tcp", "event": "rto", "cwnd": 1460},
            {"t": 2.0, "layer": "wp2p", "event": "am_state", "status": "mature"},
        ]
        md = render_report(events, title="T")
        assert md.startswith("# T")
        assert "- **Events:** 4" in md
        assert "### `tcp` — 2 events" in md
        assert "| `rto` | 2 |" in md
        assert "## Timeline excerpts" in md
        # layer render order: sim before tcp before wp2p
        assert md.index("`sim`") < md.index("`tcp`") < md.index("`wp2p`")

    def test_empty_report(self):
        from repro.analysis.runreport import render_report

        assert "_No events recorded._" in render_report([])

    def test_excerpt_elision(self):
        from repro.analysis.runreport import render_report

        events = [
            {"t": float(i), "layer": "tcp", "event": "rto"} for i in range(50)
        ]
        md = render_report(events, excerpt=5)
        assert "40 events elided" in md

    def test_report_from_jsonl(self, tmp_path):
        from repro.analysis.runreport import report_from_jsonl

        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"t": 0.0, "layer": "sim", "event": "run_begin"}) + "\n"
        )
        md = report_from_jsonl(str(path))
        assert "run_begin" in md
