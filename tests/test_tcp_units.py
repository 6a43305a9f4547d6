"""Unit tests for TCP building blocks: RTT estimation, congestion control,
segments."""

from __future__ import annotations

import pytest

from repro.tcp import (
    ACK,
    FIN,
    RST,
    SYN,
    NewRenoCongestionControl,
    RTTEstimator,
    TCPSegment,
    pure_ack,
)
from repro.tcp.congestion import CONGESTION_AVOIDANCE, FAST_RECOVERY, SLOW_START


class TestRTTEstimator:
    def test_first_sample_initialises(self):
        est = RTTEstimator()
        est.sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto >= est.min_rto

    def test_smoothing_converges(self):
        est = RTTEstimator()
        for _ in range(100):
            est.sample(0.2)
        assert est.srtt == pytest.approx(0.2, rel=0.01)
        assert est.rto == pytest.approx(max(est.min_rto, 0.2 + est.granularity), rel=0.2)

    def test_variance_reacts_to_jitter(self):
        est = RTTEstimator()
        est.sample(0.1)
        rto_stable = est.rto
        est.sample(0.5)
        assert est.rto > rto_stable

    def test_backoff_doubles_and_caps(self):
        est = RTTEstimator(initial_rto=1.0, max_rto=4.0)
        est.backoff()
        assert est.rto == pytest.approx(2.0)
        est.backoff()
        assert est.rto == pytest.approx(4.0)
        est.backoff()
        assert est.rto == pytest.approx(4.0)  # capped

    def test_sample_clears_backoff(self):
        est = RTTEstimator(initial_rto=1.0)
        est.backoff()
        est.sample(0.1)
        assert est.rto < 2.0

    def test_min_rto_floor(self):
        est = RTTEstimator(min_rto=0.3)
        for _ in range(20):
            est.sample(0.01)
        assert est.rto >= 0.3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RTTEstimator(initial_rto=0.1, min_rto=0.2)
        est = RTTEstimator()
        with pytest.raises(ValueError):
            est.sample(-1.0)


class TestNewReno:
    def make(self, mss=1000):
        return NewRenoCongestionControl(mss=mss, initial_cwnd_segments=2)

    def test_slow_start_doubles_per_rtt(self):
        cc = self.make()
        start = cc.cwnd
        # one window of acks in slow start: +1 MSS per ack
        for _ in range(2):
            cc.on_new_ack(1000, snd_nxt=10_000, ack=5_000)
        assert cc.cwnd == start + 2000
        assert cc.state == SLOW_START

    def test_congestion_avoidance_linear(self):
        cc = self.make()
        cc.cwnd = cc.ssthresh = 10_000
        before = cc.cwnd
        cc.on_new_ack(1000, snd_nxt=50_000, ack=20_000)
        assert cc.state == CONGESTION_AVOIDANCE
        assert before < cc.cwnd <= before + 1000

    def test_triple_dupack_enters_fast_recovery(self):
        cc = self.make()
        cc.cwnd = 10_000
        assert not cc.on_dupack(1, flight_size=10_000, snd_nxt=30_000)
        assert not cc.on_dupack(2, flight_size=10_000, snd_nxt=30_000)
        assert cc.on_dupack(3, flight_size=10_000, snd_nxt=30_000)
        assert cc.state == FAST_RECOVERY
        assert cc.ssthresh == 5_000
        assert cc.cwnd == 5_000 + 3_000
        assert cc.recover == 30_000

    def test_window_inflation_on_further_dupacks(self):
        cc = self.make()
        cc.on_dupack(3, flight_size=10_000, snd_nxt=30_000)
        cwnd = cc.cwnd
        cc.on_dupack(4, flight_size=10_000, snd_nxt=30_000)
        assert cc.cwnd == cwnd + 1000

    def test_partial_ack_stays_in_recovery(self):
        cc = self.make()
        cc.on_dupack(3, flight_size=10_000, snd_nxt=30_000)
        retransmit = cc.on_new_ack(2_000, snd_nxt=30_000, ack=25_000)
        assert retransmit is True
        assert cc.state == FAST_RECOVERY

    def test_full_ack_exits_recovery(self):
        cc = self.make()
        cc.on_dupack(3, flight_size=10_000, snd_nxt=30_000)
        retransmit = cc.on_new_ack(10_000, snd_nxt=30_000, ack=30_000)
        assert retransmit is False
        assert cc.state != FAST_RECOVERY
        assert cc.cwnd == cc.ssthresh

    def test_timeout_collapses_window(self):
        cc = self.make()
        cc.cwnd = 20_000
        cc.on_timeout(flight_size=20_000)
        assert cc.cwnd == cc.min_cwnd
        assert cc.ssthresh == 10_000
        assert cc.state == SLOW_START
        assert cc.timeouts == 1

    def test_ssthresh_floor_two_mss(self):
        cc = self.make()
        cc.on_timeout(flight_size=1_000)
        assert cc.ssthresh == 2_000


class TestSegments:
    def test_wire_size(self):
        seg = TCPSegment(1, 2, 0, 0, ACK, payload_len=1460)
        assert seg.wire_size == 1480
        assert pure_ack(1, 2, 0, 0).wire_size == 20  # +20B IP header on wire

    def test_seq_span_includes_syn_fin(self):
        assert TCPSegment(1, 2, 0, None, SYN).seq_span == 1
        assert TCPSegment(1, 2, 5, 0, FIN | ACK).seq_span == 1
        assert TCPSegment(1, 2, 5, 0, ACK, payload_len=10).seq_span == 10
        assert TCPSegment(1, 2, 0, 0, SYN | ACK).end_seq == 1

    def test_pure_ack_detection(self):
        assert pure_ack(1, 2, 0, 9).is_pure_ack
        assert not TCPSegment(1, 2, 0, 9, ACK, payload_len=5).is_pure_ack
        assert not TCPSegment(1, 2, 0, 9, FIN | ACK).is_pure_ack
        assert not TCPSegment(1, 2, 0, 9, RST | ACK).is_pure_ack

    def test_ack_flag_requires_ack_number(self):
        with pytest.raises(ValueError):
            TCPSegment(1, 2, 0, None, ACK)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            TCPSegment(1, 2, 0, 0, ACK, payload_len=-1)

    def test_flag_names(self):
        assert TCPSegment(1, 2, 0, 0, SYN | ACK).flag_names() == "SYN|ACK"
        assert TCPSegment(1, 2, 0, None, 0).flag_names() == "-"
