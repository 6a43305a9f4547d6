"""Unit/integration tests for Age-based Manipulation (AM)."""

from __future__ import annotations

import pytest

from repro.net import Packet
from repro.tcp import ACK, TCPSegment, pure_ack
from repro.wp2p import MATURE, YOUNG, AgeBasedManipulation

from tests.helpers import Message, TwoHostNet


def data_packet(src, dst, sport, dport, seq, ack, length=1460):
    seg = TCPSegment(sport, dport, seq, ack, ACK, length)
    return Packet(src, dst, seg)


def ack_packet(src, dst, sport, dport, seq, ack):
    return Packet(src, dst, pure_ack(sport, dport, seq, ack))


class TestAMUnit:
    def make_am(self, **kwargs):
        net = TwoHostNet(wireless=True)
        am = AgeBasedManipulation(net.sim, net.b, **kwargs)
        am.install()
        return net, am

    def test_install_uninstall(self):
        net, am = self.make_am()
        assert am.installed
        am.uninstall()
        assert not am.installed
        am.uninstall()  # idempotent

    def test_young_connection_decouples_piggybacked_ack(self):
        net, am = self.make_am()
        # no ingress traffic seen: flow defaults to YOUNG
        pkt = data_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=500)
        out = net.b.netfilter.egress.apply(pkt)
        assert len(out) == 2
        injected, original = out
        assert injected.payload.is_pure_ack
        assert injected.payload.ack == 500
        assert original is pkt
        assert am.acks_decoupled == 1

    def test_duplicate_ack_value_not_decoupled_twice(self):
        net, am = self.make_am()
        pkt1 = data_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=500)
        pkt2 = data_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1461, ack=500)
        assert len(net.b.netfilter.egress.apply(pkt1)) == 2
        # same cumulative ack: no new information, no decoupling
        assert len(net.b.netfilter.egress.apply(pkt2)) == 1

    def test_mature_connection_passes_piggyback_through(self):
        net, am = self.make_am(gamma_bytes=9000)
        # feed ingress data fast enough to look like a big remote cwnd
        for i in range(20):
            seg = TCPSegment(50000, 6881, i * 1460, 1, ACK, 1460)
            net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, seg))
            net.sim.schedule(0.011, lambda: None)
            net.sim.run()
        key = (6881, net.a.ip, 50000)
        assert am.flow_status(key) == MATURE
        pkt = data_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=999)
        assert len(net.b.netfilter.egress.apply(pkt)) == 1

    def test_mature_drops_every_fourth_dupack(self):
        net, am = self.make_am()
        # make the flow MATURE
        for i in range(20):
            seg = TCPSegment(50000, 6881, i * 1460, 1, ACK, 1460)
            net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, seg))
            net.sim.schedule(0.011, lambda: None)
            net.sim.run()
        survived = 0
        # first ACK of this value, then 12 duplicates
        out = net.b.netfilter.egress.apply(
            ack_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=1000)
        )
        survived += len(out)
        for _ in range(12):
            out = net.b.netfilter.egress.apply(
                ack_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=1000)
            )
            survived += len(out)
        assert am.dupacks_seen == 12
        assert am.dupacks_dropped == 3  # dupacks 4, 8, 12
        assert survived == 13 - 3

    def test_young_dupacks_not_dropped(self):
        net, am = self.make_am()
        for _ in range(8):
            out = net.b.netfilter.egress.apply(
                ack_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=1000)
            )
            assert len(out) == 1
        assert am.dupacks_dropped == 0

    def test_first_three_dupacks_always_survive(self):
        """Fast retransmit needs 3 dupacks; AM must never starve it."""
        net, am = self.make_am()
        for i in range(20):
            seg = TCPSegment(50000, 6881, i * 1460, 1, ACK, 1460)
            net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, seg))
            net.sim.schedule(0.011, lambda: None)
            net.sim.run()
        outs = []
        for _ in range(4):  # original + 3 dupacks
            outs.append(
                net.b.netfilter.egress.apply(
                    ack_packet(net.b.ip, net.a.ip, 6881, 50000, seq=1, ack=77)
                )
            )
        assert all(len(o) == 1 for o in outs)

    def test_parameter_validation(self):
        net = TwoHostNet(wireless=True)
        with pytest.raises(ValueError):
            AgeBasedManipulation(net.sim, net.b, gamma_bytes=0)


class TestAMEndToEnd:
    def test_transfer_still_correct_with_am(self):
        """AM must be transparent: same data, same order, no corruption."""
        net = TwoHostNet(seed=4, wireless=True, ber=1e-5)
        am = AgeBasedManipulation(net.sim, net.b)
        am.install()
        received = []

        def accept(conn):
            conn.on_message = lambda m: received.append(m.tag)

        net.stack_b.listen(6881, accept)
        client = net.stack_a.connect(net.b.ip, 6881)
        server_holder = []

        # bidirectional: also send from b so piggybacking happens
        def on_est():
            pass

        client.on_established = on_est
        back = []
        client.on_message = lambda m: back.append(m.tag)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert received == list(range(100))

    def test_am_decouples_in_bidirectional_transfer(self):
        net = TwoHostNet(seed=5, wireless=True, ber=5e-6)
        am = AgeBasedManipulation(net.sim, net.b)
        am.install()
        server_conns = []

        def accept(conn):
            conn.received = []
            conn.on_message = lambda m: conn.received.append(m.tag)
            server_conns.append(conn)

        net.stack_b.listen(6881, accept)
        client = net.stack_a.connect(net.b.ip, 6881)
        client.on_message = lambda m: None
        net.sim.run(until=1.0)
        server = server_conns[0]
        for i in range(150):
            client.send_message(Message(1460, i))
            server.send_message(Message(1460, i))
        net.sim.run(until=180.0)
        assert server.received == list(range(150))
        assert am.acks_decoupled > 0
