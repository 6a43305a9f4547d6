"""Tests for TCP flow control, ACK policy, and window behaviour."""

from __future__ import annotations

import pytest

from repro.tcp import TCPConfig, TCPSegment
from repro.tcp.segment import ACK

from tests.helpers import Message, TwoHostNet


def open_pair(net, port=6881):
    accepted = []

    def accept(conn):
        conn.received = []
        conn.on_message = lambda m: conn.received.append(m.tag)
        accepted.append(conn)

    net.stack_b.listen(port, accept)
    client = net.stack_a.connect(net.b.ip, port)
    client.received = []
    client.on_message = lambda m: client.received.append(m.tag)
    return client, accepted


class TestReceiveWindow:
    def test_sender_respects_peer_rwnd(self):
        config = TCPConfig(rwnd=8_192)
        net = TwoHostNet(tcp_config=config)
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        client.send_message(Message(100_000, "big"))
        # at any instant, flight never exceeds the advertised window
        for _ in range(100):
            net.sim.run(until=net.sim.now + 0.05)
            assert client.snd.flight_size <= 8_192
        net.sim.run(until=60.0)
        assert accepted[0].received == ["big"]


class TestAckPolicy:
    def test_delayed_ack_coalesces(self):
        """With delack, far fewer pure ACKs than data segments on a clean
        unidirectional transfer."""
        net = TwoHostNet()
        client, accepted = open_pair(net)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=30.0)
        server = accepted[0]
        assert server.stats.pure_acks_sent < client.stats.segments_sent
        # delack_segments=2: roughly one ACK per two segments
        assert server.stats.pure_acks_sent <= client.stats.segments_sent * 0.75

    def test_delack_segments_one_acks_every_segment(self):
        """delack_segments=1: a pure ACK per full segment, so more than the
        coalescing bound above allows."""
        net = TwoHostNet(tcp_config=TCPConfig(delack_segments=1))
        client, accepted = open_pair(net)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=30.0)
        server = accepted[0]
        assert server.received == list(range(100))
        assert server.stats.pure_acks_sent > client.stats.segments_sent * 0.75

    def test_delack_timer_fires_for_odd_segment(self):
        """A lone segment still gets acknowledged within the delack window."""
        net = TwoHostNet()
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        client.send_message(Message(500, "only"))
        net.sim.run(until=1.0 + 0.5)
        assert accepted[0].received == ["only"]
        assert client.snd.flight_size == 0  # acked despite no 2nd segment

    def test_piggyback_counter_tracks_data_acks(self):
        net = TwoHostNet()
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        server = accepted[0]
        for i in range(50):
            client.send_message(Message(1460, i))
            server.send_message(Message(1460, i))
        net.sim.run(until=30.0)
        assert server.stats.piggybacked_acks > 0


class TestSegmentationAndIdle:
    def test_mss_respected(self):
        seen_sizes = []

        net = TwoHostNet()

        def watch(pkt):
            seg = pkt.payload
            if isinstance(seg, TCPSegment) and seg.payload_len:
                seen_sizes.append(seg.payload_len)
            return None

        net.a.netfilter.egress.register(watch)
        client, accepted = open_pair(net)
        client.send_message(Message(100_000, "big"))
        net.sim.run(until=30.0)
        assert seen_sizes
        assert max(seen_sizes) <= net.stack_a.config.mss

    def test_many_small_messages_share_segments(self):
        """Small messages are coalesced into MSS-sized segments."""
        net = TwoHostNet()
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        for i in range(100):
            client.send_message(Message(100, i))
        net.sim.run(until=30.0)
        assert accepted[0].received == list(range(100))
        # without Nagle each synchronous send may flush, but once the
        # window fills queued messages coalesce into MSS-sized segments
        assert client.stats.segments_sent < 60
        assert client.stats.payload_bytes_sent == 100 * 100

    def test_idle_connection_stays_established(self):
        net = TwoHostNet()
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        client.send_message(Message(1000, "a"))
        net.sim.run(until=120.0)  # long silence
        assert client.established
        client.send_message(Message(1000, "b"))
        net.sim.run(until=130.0)
        assert accepted[0].received == ["a", "b"]


class TestStatsConsistency:
    def test_bytes_acked_matches_bytes_delivered(self):
        net = TwoHostNet(seed=6, wireless=True, ber=5e-6)
        client, accepted = open_pair(net)
        for i in range(200):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        server = accepted[0]
        assert server.received == list(range(200))
        assert client.stats.payload_bytes_acked == 200 * 1460
        assert server.stats.payload_bytes_delivered == 200 * 1460

    def test_retransmissions_counted_under_loss(self):
        net = TwoHostNet(seed=7, wireless=True, ber=1e-5)
        client, accepted = open_pair(net)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert client.stats.retransmissions > 0
        # payload sent >= payload size (retransmissions inflate it)
        assert client.stats.payload_bytes_sent >= 100 * 1460

    def test_cwnd_tracking_flag(self):
        config = TCPConfig(track_cwnd=True)
        net = TwoHostNet(tcp_config=config)
        client, accepted = open_pair(net)
        for i in range(50):
            client.send_message(Message(1460, i))
        net.sim.run(until=20.0)
        assert len(client.stats.cwnd_history) > 10
        times = [t for t, _ in client.stats.cwnd_history]
        assert times == sorted(times)
