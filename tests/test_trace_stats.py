"""Tests for the packet tracer and multi-run statistics."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Summary,
    summarize,
    t_critical_95,
)
from repro.net import PacketTrace

from tests.helpers import Message, TwoHostNet


class TestPacketTrace:
    def open_traced_pair(self):
        net = TwoHostNet()
        trace = PacketTrace(net.sim, net.a)
        accepted = []

        def accept(conn):
            conn.on_message = lambda m: accepted.append(m.tag)

        net.stack_b.listen(6881, accept)
        client = net.stack_a.connect(net.b.ip, 6881)
        return net, trace, client

    def test_captures_both_directions(self):
        net, trace, client = self.open_traced_pair()
        client.send_message(Message(1000, "x"))
        net.sim.run(until=5.0)
        assert trace.egress()
        assert trace.ingress()
        assert len(trace) == len(trace.egress()) + len(trace.ingress())

    def test_tcp_summaries_readable(self):
        net, trace, client = self.open_traced_pair()
        client.send_message(Message(1000, "x"))
        net.sim.run(until=5.0)
        syns = trace.matching("SYN")
        assert syns
        assert "seq=" in syns[0].summary
        assert str(syns[0])  # renders

    def test_filter_predicate(self):
        net = TwoHostNet()
        trace = PacketTrace(
            net.sim, net.a, keep=lambda p: p.payload.payload_len > 0
        )
        accepted = []
        net.stack_b.listen(6881, lambda c: None)
        client = net.stack_a.connect(net.b.ip, 6881)
        client.send_message(Message(3000, "x"))
        net.sim.run(until=5.0)
        assert all("len=" in r.summary for r in trace.records)

    def test_detach_stops_capture(self):
        net, trace, client = self.open_traced_pair()
        net.sim.run(until=2.0)
        count = len(trace)
        trace.detach()
        client.send_message(Message(5000, "more"))
        net.sim.run(until=5.0)
        assert len(trace) == count
        trace.detach()  # idempotent

    def test_max_records_cap(self):
        net = TwoHostNet()
        trace = PacketTrace(net.sim, net.a, max_records=5)
        net.stack_b.listen(6881, lambda c: None)
        client = net.stack_a.connect(net.b.ip, 6881)
        for i in range(50):
            client.send_message(Message(1460, i))
        net.sim.run(until=10.0)
        assert len(trace) == 5
        assert trace.dropped_records > 0

    def test_bytes_by_direction_and_dump(self):
        net, trace, client = self.open_traced_pair()
        client.send_message(Message(2000, "x"))
        net.sim.run(until=5.0)
        by_dir = trace.bytes_by_direction()
        assert by_dir["egress"] > 2000
        assert by_dir["ingress"] > 0
        assert "->" in trace.dump(limit=3)

    def test_trace_does_not_alter_traffic(self):
        # identical outcome with and without a trace attached
        def run(traced):
            net = TwoHostNet(seed=8, wireless=True, ber=5e-6)
            if traced:
                PacketTrace(net.sim, net.a)
            got = []

            def accept(conn):
                conn.on_message = lambda m: got.append(m.tag)

            net.stack_b.listen(6881, accept)
            client = net.stack_a.connect(net.b.ip, 6881)
            for i in range(60):
                client.send_message(Message(1460, i))
            net.sim.run(until=60.0)
            return got, client.stats.segments_sent

        assert run(False) == run(True)


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
