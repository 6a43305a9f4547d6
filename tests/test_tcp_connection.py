"""Integration tests for TCP connections over the simulated network."""

from __future__ import annotations

import pytest

from repro.net import Packet
from repro.tcp import TCPConfig, TCPStack, TCPSegment
from repro.tcp.segment import ACK, SYN

from tests.helpers import Message, TwoHostNet, collect_messages


def open_connection(net: TwoHostNet, port: int = 6881):
    """Connect a -> b and return (client_conn, server_conn_holder)."""
    server_conns = []

    def on_accept(conn):
        conn.on_message = collect_messages(conn.received_tags)

    # attach a tag sink to accepted connections lazily
    accepted = []

    def accept(conn):
        conn.received_tags = []
        conn.on_message = lambda m: conn.received_tags.append(m.tag)
        accepted.append(conn)

    net.stack_b.listen(port, accept)
    client = net.stack_a.connect(net.b.ip, port)
    client.received_tags = []
    client.on_message = lambda m: client.received_tags.append(m.tag)
    return client, accepted


class TestHandshake:
    def test_three_way_handshake(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        established = []
        client.on_established = lambda: established.append(net.sim.now)
        net.sim.run(until=2.0)
        assert established
        assert client.established
        assert len(accepted) == 1
        assert accepted[0].established

    def test_syn_to_closed_port_gets_rst(self, two_hosts):
        net = two_hosts
        client = net.stack_a.connect(net.b.ip, 9)
        closed = []
        client.on_close = lambda r: closed.append(r)
        net.sim.run(until=2.0)
        assert closed == ["reset"]
        assert net.stack_b.rst_sent == 1

    def test_syn_retransmission_on_loss(self):
        net = TwoHostNet(wireless=True, ber=0.0)
        # drop the first SYN via an egress filter
        dropped = []

        def drop_first_syn(pkt):
            seg = pkt.payload
            if isinstance(seg, TCPSegment) and seg.has(SYN) and not dropped:
                dropped.append(pkt)
                return []
            return None

        net.a.netfilter.egress.register(drop_first_syn)
        net.stack_b.listen(6881, lambda c: None)
        client = net.stack_a.connect(net.b.ip, 6881)
        net.sim.run(until=5.0)
        assert dropped
        assert client.established

    def test_connect_requires_address(self, two_hosts):
        net = two_hosts
        net.a.take_down()
        with pytest.raises(RuntimeError):
            net.stack_a.connect(net.b.ip, 6881)


class TestDataTransfer:
    def test_messages_delivered_in_order(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        for i in range(100):
            client.send_message(Message(1000, i))
        net.sim.run(until=30.0)
        assert accepted[0].received_tags == list(range(100))

    def test_large_message_spans_segments(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        client.send_message(Message(100_000, "big"))
        net.sim.run(until=30.0)
        assert accepted[0].received_tags == ["big"]
        assert client.stats.segments_sent > 60  # ~69 MSS segments

    def test_bidirectional_transfer(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        server = accepted[0]
        for i in range(50):
            client.send_message(Message(1000, ("c", i)))
            server.send_message(Message(1000, ("s", i)))
        net.sim.run(until=30.0)
        assert len(server.received_tags) == 50
        assert len(client.received_tags) == 50

    def test_piggybacking_dominates_bidirectional_bulk(self):
        """With data flowing both ways, most ACKs ride on data segments."""
        net = TwoHostNet()
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        server = accepted[0]
        for i in range(200):
            client.send_message(Message(1460, i))
            server.send_message(Message(1460, i))
        net.sim.run(until=60.0)
        assert len(client.received_tags) == 200
        # data segments (each carrying an ACK) far outnumber pure ACKs
        assert server.stats.pure_acks_sent < server.stats.segments_sent / 2

    def test_unidirectional_uses_pure_acks(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=30.0)
        server = accepted[0]
        assert server.stats.pure_acks_sent > 30  # receiver never piggybacks

    def test_throughput_bounded_by_bottleneck(self):
        net = TwoHostNet(wireless=True, rate=50_000, ber=0.0)
        client, accepted = open_connection(net)
        start = 1.0
        payload = 300_000

        def pump():
            client.send_message(Message(payload, "x"))

        net.sim.schedule(start, pump)
        net.sim.run(until=40.0)
        assert accepted[0].received_tags == ["x"]
        # payload took at least payload/rate seconds after start
        assert net.sim.now >= start + payload / 50_000 * 0.9


class TestLossRecovery:
    def _lossy_net(self, ber=1e-5, seed=2):
        return TwoHostNet(seed=seed, wireless=True, ber=ber)

    def test_transfer_completes_despite_losses(self):
        net = self._lossy_net()
        client, accepted = open_connection(net)
        for i in range(150):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert accepted[0].received_tags == list(range(150))
        assert client.stats.retransmissions > 0

    def test_fast_retransmit_used(self):
        net = self._lossy_net(ber=4e-6, seed=5)
        client, accepted = open_connection(net)
        for i in range(400):
            client.send_message(Message(1460, i))
        net.sim.run(until=200.0)
        assert accepted[0].received_tags == list(range(400))
        assert client.stats.fast_retransmits > 0

    def test_dupacks_are_pure(self):
        """Receivers must never piggyback DUPACKs on data (spec rule §3.2)."""
        net = self._lossy_net(ber=1e-5, seed=3)
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        server = accepted[0]
        # bidirectional bulk: server has data to piggyback on, yet dupacks
        # must go out as pure ACKs
        pure_acks = []

        def watch(pkt):
            seg = pkt.payload
            if isinstance(seg, TCPSegment) and seg.is_pure_ack:
                pure_acks.append(seg)
            return None

        net.b.netfilter.egress.register(watch)
        for i in range(200):
            client.send_message(Message(1460, i))
            server.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert server.stats.dupacks_sent > 0
        # every dupack the server sent was observed as a pure ACK
        assert len(pure_acks) >= server.stats.dupacks_sent

    def test_retransmission_timeout_recovers_total_blackout(self):
        net = TwoHostNet(wireless=True, ber=0.0)
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        # black out the channel by dropping everything for a while
        blackout = {"on": False}

        def drop_all(pkt):
            return [] if blackout["on"] else None

        net.b.netfilter.egress.register(drop_all)
        net.a.netfilter.egress.register(drop_all)
        client.send_message(Message(50_000, "pre"))
        net.sim.run(until=5.0)
        blackout["on"] = True
        client.send_message(Message(50_000, "during"))
        net.sim.run(until=8.0)
        blackout["on"] = False
        net.sim.run(until=60.0)
        assert accepted[0].received_tags == ["pre", "during"]
        assert client.stats.timeouts > 0

    def test_connection_dies_after_max_timeouts(self):
        config = TCPConfig(max_rto=2.0)
        net = TwoHostNet(tcp_config=config)
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        # permanent blackout
        net.a.netfilter.egress.register(lambda pkt: [])
        closed = []
        client.on_close = lambda r: closed.append(r)
        client.send_message(Message(10_000, "x"))
        net.sim.run(until=60.0)
        assert closed == ["timeout"]
        assert client.closed


class TestClose:
    def test_graceful_close_both_sides(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        client_closed, server_closed = [], []
        client.on_close = lambda r: client_closed.append(r)
        client.send_message(Message(5000, "x"))
        net.sim.run(until=5.0)
        server = accepted[0]
        server.on_close = lambda r: server_closed.append(r)
        client.close()
        net.sim.run(until=10.0)
        server.close()
        net.sim.run(until=20.0)
        assert server.received_tags == ["x"]
        assert client_closed == ["closed"]
        assert server_closed == ["closed"]

    def test_close_flushes_pending_data(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        client.send_message(Message(200_000, "big"))
        client.close()  # FIN must wait for the data
        net.sim.run(until=60.0)
        assert accepted[0].received_tags == ["big"]

    def test_send_after_close_rejected(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        client.close()
        with pytest.raises(RuntimeError):
            client.send_message(Message(100, "late"))

    def test_abort_sends_rst(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        server = accepted[0]
        server_closed = []
        server.on_close = lambda r: server_closed.append(r)
        client.abort()
        net.sim.run(until=2.0)
        assert server_closed == ["reset"]
        assert client.closed

    def test_stack_unregisters_closed_connections(self, two_hosts):
        net = two_hosts
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        assert net.stack_a.connection_count() == 1
        client.abort()
        net.sim.run(until=2.0)
        assert net.stack_a.connection_count() == 0
        assert net.stack_b.connection_count() == 0


class TestStack:
    def test_ephemeral_ports_unique(self, two_hosts):
        net = two_hosts
        net.stack_b.listen(6881, lambda c: None)
        conns = [net.stack_a.connect(net.b.ip, 6881) for _ in range(10)]
        ports = {c.local_port for c in conns}
        assert len(ports) == 10

    def test_duplicate_listen_rejected(self, two_hosts):
        net = two_hosts
        net.stack_b.listen(6881, lambda c: None)
        with pytest.raises(ValueError):
            net.stack_b.listen(6881, lambda c: None)

    def test_stale_connection_dies_after_ip_change(self):
        """A connection bound to the old address starves after a handoff."""
        from repro.net.mobility import disconnect_host, reconnect_host

        config = TCPConfig(max_rto=2.0)
        net = TwoHostNet(tcp_config=config)
        client, accepted = open_connection(net)
        net.sim.run(until=1.0)
        closed = []
        client.on_close = lambda r: closed.append(r)
        disconnect_host(net.a, net.internet, net.alloc)
        reconnect_host(net.a, net.internet, net.alloc)
        client.send_message(Message(10_000, "x"))
        net.sim.run(until=120.0)
        # packets leave with the stale source address; replies are unroutable
        assert closed == ["timeout"]
