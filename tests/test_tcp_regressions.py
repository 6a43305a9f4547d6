"""Regression tests for specific TCP bugs found during development.

Each test pins a behaviour that once failed; keep them even if they look
redundant with broader suites.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import TCPConfig, TCPSegment
from repro.tcp.segment import ACK, RST, SYN

from tests.helpers import Message, TwoHostNet


def open_pair(net, port=6881):
    accepted = []

    def accept(conn):
        conn.received = []
        conn.on_message = lambda m: conn.received.append(m.tag)
        accepted.append(conn)

    net.stack_b.listen(port, accept)
    client = net.stack_a.connect(net.b.ip, port)
    return client, accepted


class TestFastRetransmitRestartsRtoTimer:
    """Bug: the RTO timer armed at the last new ACK could expire milliseconds
    after a fast retransmit, collapsing an almost-complete recovery into
    slow start and a go-back-N duplicate storm."""

    def test_no_timeout_when_fast_retransmit_recovers(self):
        net = TwoHostNet(core_delay=0.05)
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        # drop exactly one mid-stream data segment
        state = {"dropped": False}

        def drop_one(pkt):
            seg = pkt.payload
            if (
                isinstance(seg, TCPSegment)
                and seg.payload_len > 0
                and not state["dropped"]
                and seg.seq > 20_000
            ):
                state["dropped"] = True
                return []
            return None

        net.a.netfilter.egress.register(drop_one)
        for i in range(60):
            client.send_message(Message(1460, i))
        net.sim.run(until=30.0)
        assert accepted[0].received == list(range(60))
        assert state["dropped"]
        assert client.stats.fast_retransmits == 1
        # the single loss must be healed by fast retransmit alone
        assert client.stats.timeouts == 0

    def test_rto_timer_pushed_out_by_retransmission(self):
        net = TwoHostNet()
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        client.send_message(Message(30_000, "x"))
        net.sim.run(until=0.01 + net.sim.now)
        before = client._rto_timer.expires_at
        client._retransmit_head()
        after = client._rto_timer.expires_at
        assert after is not None and before is not None
        assert after >= before


class TestGoBackNAckAcceptance:
    """Bug: after an RTO rewound snd_nxt, cumulative ACKs above snd_nxt
    (for data the receiver already held) were discarded, deadlocking the
    sender into serial timeouts."""

    def test_ack_above_rewound_nxt_accepted(self):
        config = TCPConfig(max_rto=2.0)
        net = TwoHostNet(tcp_config=config)
        client, accepted = open_pair(net)
        net.sim.run(until=1.0)
        # drop a burst mid-window so the RTO path must run
        state = {"window": (30_000, 45_000)}

        def drop_range(pkt):
            seg = pkt.payload
            lo, hi = state["window"]
            if (
                isinstance(seg, TCPSegment)
                and seg.payload_len > 0
                and lo <= seg.seq < hi
            ):
                state["window"] = (0, 0)  # only once per segment range
                return []
            return None

        net.a.netfilter.egress.register(drop_range)
        for i in range(100):
            client.send_message(Message(1460, i))
        net.sim.run(until=60.0)
        assert accepted[0].received == list(range(100))
        # no serial-timeout death spiral
        assert client.stats.timeouts <= 3


class TestAdversarialLossPatterns:
    """Property: whatever subset of data packets an adversary drops (each
    at most once), the stream is always delivered completely and in order."""

    @given(
        st.sets(st.integers(min_value=0, max_value=79), max_size=25),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_drop_any_subset_once(self, drop_indices, seed):
        config = TCPConfig(max_rto=2.0)
        net = TwoHostNet(seed=seed % 1000, tcp_config=config)
        client, accepted = open_pair(net)
        counter = {"n": 0}
        dropped = set()

        def dropper(pkt):
            seg = pkt.payload
            if isinstance(seg, TCPSegment) and seg.payload_len > 0:
                index = counter["n"]
                counter["n"] += 1
                if index in drop_indices and index not in dropped:
                    dropped.add(index)
                    return []
            return None

        net.a.netfilter.egress.register(dropper)
        for i in range(80):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert accepted[0].received == list(range(80))

    @given(
        st.sets(st.integers(min_value=0, max_value=79), max_size=25),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_drop_any_subset_once_with_sack(self, drop_indices, seed):
        config = TCPConfig(max_rto=2.0, sack=True)
        net = TwoHostNet(seed=seed % 1000, tcp_config=config)
        client, accepted = open_pair(net)
        counter = {"n": 0}
        dropped = set()

        def dropper(pkt):
            seg = pkt.payload
            if isinstance(seg, TCPSegment) and seg.payload_len > 0:
                index = counter["n"]
                counter["n"] += 1
                if index in drop_indices and index not in dropped:
                    dropped.add(index)
                    return []
            return None

        net.a.netfilter.egress.register(dropper)
        for i in range(80):
            client.send_message(Message(1460, i))
        net.sim.run(until=120.0)
        assert accepted[0].received == list(range(80))


class TestRefusedAcceptAnswersWithRst:
    """A listener that aborts the new connection inside ``on_accept``
    (what ``BitTorrentClient._accept`` does at ``max_peers`` or when
    stopped) refuses it: ``TCPStack._accept`` answers the SYN with one
    RST, as for a port nobody listens on, and the finished endpoint
    neither sends a SYN-ACK nor arms a timer.  The initiator learns of
    the refusal at once instead of completing a handshake with nobody.
    """

    def test_refused_accept_sends_rst_not_synack(self):
        net = TwoHostNet()
        refused = []

        def refuse(conn):
            refused.append(conn)
            conn.abort("busy")

        flags_from_b = []
        net.b.netfilter.egress.register(
            lambda pkt: flags_from_b.append(pkt.payload.flags)
        )
        net.stack_b.listen(6881, refuse)
        reasons = []
        client = net.stack_a.connect(net.b.ip, 6881)
        client.on_close = reasons.append
        net.sim.run(until=0.5)
        (conn,) = refused
        assert flags_from_b == [RST | ACK]  # one RST, no SYN-ACK
        assert not any(flags & SYN for flags in flags_from_b)
        assert conn.closed
        assert not conn._rto_timer.armed and not conn._delack_timer.armed
        assert reasons == ["reset"] and not client.established
