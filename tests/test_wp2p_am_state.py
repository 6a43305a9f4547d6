"""Tests for AM per-flow state lifecycle and edge cases."""

from __future__ import annotations

import pytest

from repro.net import Packet
from repro.tcp import ACK, FIN, RST, TCPSegment, pure_ack
from repro.wp2p import MATURE, YOUNG, AgeBasedManipulation

from tests.helpers import TwoHostNet


def make_am(**kwargs):
    net = TwoHostNet(wireless=True)
    am = AgeBasedManipulation(net.sim, net.b, **kwargs)
    am.install()
    return net, am


def ingress_data(net, nbytes=1460, seq=0, sport=50000, dport=6881):
    seg = TCPSegment(sport, dport, seq, 1, ACK, nbytes)
    net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, seg))


class TestFlowLifecycle:
    def test_flow_created_on_ingress_data(self):
        net, am = make_am()
        assert len(am._flows) == 0
        ingress_data(net)
        assert len(am._flows) == 1

    def test_fin_removes_flow_state(self):
        net, am = make_am()
        ingress_data(net)
        fin = TCPSegment(50000, 6881, 1460, 1, FIN | ACK)
        net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, fin))
        assert len(am._flows) == 0

    def test_rst_removes_flow_state(self):
        net, am = make_am()
        ingress_data(net)
        rst = TCPSegment(50000, 6881, 1460, 1, RST | ACK)
        net.b.netfilter.ingress.apply(Packet(net.a.ip, net.b.ip, rst))
        assert len(am._flows) == 0

    def test_status_transitions_young_to_mature_and_back(self):
        net, am = make_am(gamma_bytes=9000)
        key = (6881, net.a.ip, 50000)
        # heavy ingress: MATURE
        for i in range(20):
            ingress_data(net, seq=i * 1460)
            net.sim.schedule(0.011, lambda: None)
            net.sim.run()
        assert am.flow_status(key) == MATURE
        # silence, then a trickle: estimate decays to the trickle -> YOUNG
        net.sim.schedule(1.0, lambda: None)
        net.sim.run()
        ingress_data(net, seq=100_000)
        net.sim.schedule(0.2, lambda: None)
        net.sim.run()
        ingress_data(net, seq=101_460)
        assert am.flow_status(key) == YOUNG

    def test_unknown_flow_defaults_young(self):
        net, am = make_am()
        assert am.flow_status((1, "10.9.9.9", 2)) == YOUNG

    def test_flows_keyed_per_connection(self):
        net, am = make_am()
        ingress_data(net, sport=50000)
        ingress_data(net, sport=50001)
        assert len(am._flows) == 2


class TestEgressEdgeCases:
    def test_syn_packets_pass_untouched(self):
        from repro.tcp.segment import SYN

        net, am = make_am()
        syn = TCPSegment(6881, 50000, 0, None, SYN)
        out = net.b.netfilter.egress.apply(Packet(net.b.ip, net.a.ip, syn))
        assert len(out) == 1
        assert out[0].payload is syn

    def test_non_tcp_payload_ignored(self):
        class Blob:
            wire_size = 100

        net, am = make_am()
        out = net.b.netfilter.egress.apply(Packet(net.b.ip, net.a.ip, Blob()))
        assert len(out) == 1

    def test_ack_regression_not_decoupled(self):
        """An outgoing data packet whose ack is older than one already sent
        carries no new information — no pure-ACK injection."""
        net, am = make_am()
        p1 = Packet(net.b.ip, net.a.ip, TCPSegment(6881, 50000, 0, 5000, ACK, 1460))
        assert len(net.b.netfilter.egress.apply(p1)) == 2
        p2 = Packet(net.b.ip, net.a.ip, TCPSegment(6881, 50000, 1460, 4000, ACK, 1460))
        assert len(net.b.netfilter.egress.apply(p2)) == 1

    def test_injected_ack_preserves_addressing(self):
        net, am = make_am()
        pkt = Packet(net.b.ip, net.a.ip, TCPSegment(6881, 50000, 7, 999, ACK, 1460))
        injected, original = net.b.netfilter.egress.apply(pkt)
        seg = injected.payload
        assert injected.src == net.b.ip
        assert injected.dst == net.a.ip
        assert seg.src_port == 6881
        assert seg.dst_port == 50000
        assert seg.ack == 999
        assert seg.payload_len == 0

    def test_uninstall_stops_manipulation(self):
        net, am = make_am()
        am.uninstall()
        pkt = Packet(net.b.ip, net.a.ip, TCPSegment(6881, 50000, 0, 500, ACK, 1460))
        assert len(net.b.netfilter.egress.apply(pkt)) == 1
        assert am.acks_decoupled == 0
