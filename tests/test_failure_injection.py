"""Failure-injection tests: the stack must survive hostile conditions.

Corrupted pieces, tracker outages, peers vanishing mid-transfer, hosts that
never come back, zero-capacity links — none of these may wedge a client or
corrupt its state.

The fault scenarios are driven by :mod:`repro.chaos` schedules — the same
declarative events the ``--chaos`` presets use — rather than hand-rolled
``disconnect_host`` choreography, so these tests also pin the controller's
fault semantics (crash vs blackout vs storm).
"""

from __future__ import annotations

import pytest

from repro.bittorrent.swarm import SwarmScenario
from repro.chaos import (
    ChaosSchedule,
    CorruptionBurst,
    HandoffStorm,
    LinkBlackout,
    PeerCrash,
    TrackerOutage,
)
from repro.tcp import TCPConfig

from tests.helpers import Message, TwoHostNet


class TestPieceCorruption:
    def test_download_completes_despite_hash_failures(self):
        sc = SwarmScenario(seed=31, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        leech = sc.add_wired_peer("leech")
        sc.add_chaos(ChaosSchedule((
            CorruptionBurst(start=0.5, duration=400.0, target="leech",
                            probability=0.2),
        )))
        sc.start_all()
        assert sc.run_until_complete(["leech"], timeout=600)
        assert leech.client.manager.hash_failures > 0
        # corrupted pieces were re-downloaded: more bytes than the file
        assert leech.client.downloaded.total > sc.torrent.total_size


class TestTrackerOutage:
    def test_client_retries_when_tracker_down(self):
        sc = SwarmScenario(seed=32, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        leech = sc.add_wired_peer("leech")
        # tracker goes dark before anyone starts, back at its old address
        # (a blackout outage restores the metainfo's tracker IP) at t=30
        sc.add_chaos(ChaosSchedule((
            TrackerOutage(start=0.0, duration=30.0, mode="blackout"),
        )))
        sc.start_all()
        sc.run(until=29.0)
        assert not leech.client.complete
        assert leech.client.known_addresses == {}
        assert sc.run_until_complete(["leech"], timeout=600)
        assert sc.torrent.tracker_ip == sc.tracker_host.ip

    def test_client_survives_tracker_never_returning(self):
        sc = SwarmScenario(seed=33, file_size=256 * 1024, piece_length=65_536)
        leech = sc.add_wired_peer("leech")
        sc.add_chaos(ChaosSchedule((
            TrackerOutage(start=0.0, duration=500.0, mode="blackout"),
        )))
        sc.start_all()
        sc.run(until=120.0)  # must not raise or wedge
        assert not leech.client.complete
        assert leech.client.started

    def test_soft_outage_refuses_then_recovers(self):
        sc = SwarmScenario(seed=39, file_size=256 * 1024, piece_length=65_536,
                           tracker_interval=10.0)
        sc.add_wired_peer("seed", complete=True)
        leech = sc.add_wired_peer("leech")
        # host stays routable, announces get TrackerError for 40 seconds
        sc.add_chaos(ChaosSchedule((
            TrackerOutage(start=0.0, duration=40.0, mode="refuse"),
        )))
        sc.start_all()
        sc.run(until=35.0)
        assert sc.tracker.refused > 0
        assert not leech.client.complete
        assert sc.run_until_complete(["leech"], timeout=600)


class TestPeerChurn:
    def test_seed_vanishes_mid_download_other_seed_finishes(self):
        sc = SwarmScenario(seed=34, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("s1", complete=True, up_rate=60_000)
        sc.add_wired_peer("s2", complete=True, up_rate=60_000)
        leech = sc.add_wired_peer("leech")
        # s1 crashes at t=8 and never rejoins (downtime=None)
        sc.add_chaos(ChaosSchedule((
            PeerCrash(start=8.0, target="s1"),
        )))
        sc.start_all()
        sc.run(until=7.5)
        assert 0 < leech.client.progress < 1
        assert sc.run_until_complete(["leech"], timeout=600)
        assert sc.chaos.faults_injected == 1

    def test_all_peers_vanish_then_client_keeps_waiting(self):
        sc = SwarmScenario(seed=35, file_size=1024 * 1024, piece_length=65_536)
        seed = sc.add_wired_peer("seed", complete=True)
        leech = sc.add_wired_peer("leech")
        sc.add_chaos(ChaosSchedule((
            PeerCrash(start=5.0, target="seed"),
        )))
        sc.start_all()
        sc.run(until=120.0)
        # stranded connection died; client still alive and announcing
        assert leech.client.started
        assert not leech.client.complete
        assert all(p.remote_ip != seed.host.ip for p in leech.client.connected_peers())

    def test_crash_with_downtime_rejoins_and_completes(self):
        sc = SwarmScenario(seed=40, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        leech = sc.add_wired_peer("leech")
        # the *leech* dies mid-download and rejoins 10 s later
        sc.add_chaos(ChaosSchedule((
            PeerCrash(start=4.0, target="leech", downtime=10.0),
        )))
        sc.start_all()
        sc.run(until=13.0)
        assert not leech.client.started  # crashed, not yet rejoined
        assert sc.run_until_complete(["leech"], timeout=600)
        assert leech.client.started

    def test_leech_abort_releases_outstanding_requests(self):
        sc = SwarmScenario(seed=36, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=30_000)
        l1 = sc.add_wired_peer("l1")
        sc.start_all()
        sc.run(until=5.0)
        mgr = l1.client.manager
        assert mgr.outstanding_requests()
        l1.client.stop(announce=False)
        sc.run(until=8.0)
        # a stopped client's manager has no stuck requested blocks visible
        # to a restarted task: expiry would release them
        released = mgr.expire_requests(now=1e9, timeout=30.0)
        assert isinstance(released, list)


class TestMobileBlackouts:
    def test_long_disconnection_then_resume(self):
        sc = SwarmScenario(seed=37, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=150_000)
        # radio dies at t=6 for 54 s; the client process keeps running
        sc.add_chaos(ChaosSchedule((
            LinkBlackout(start=6.0, duration=54.0, target="mob"),
        )))
        sc.start_all()
        sc.run(until=10.0)
        progress_before = mob.client.progress
        sc.run(until=59.0)
        assert mob.client.progress == pytest.approx(progress_before, abs=0.05)
        assert sc.run_until_complete(["mob"], timeout=600)

    def test_rapid_flapping_interface(self):
        """Handoffs every few seconds: pathological but must not crash."""
        sc = SwarmScenario(seed=38, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=200_000)
        # a storm of forced handoffs against a peer with no mobility
        # controller exercises the manual disconnect/reconnect path
        sc.add_chaos(ChaosSchedule((
            HandoffStorm(start=2.0, target="mob", count=17, spacing=5.0,
                         downtime=0.5),
        )))
        sc.start_all()
        sc.run(until=90.0)
        assert mob.client.task_restarts >= 10
        assert mob.client.downloaded.total > 0


class TestTransportAbuse:
    def test_send_to_unroutable_address_times_out_cleanly(self):
        net = TwoHostNet(tcp_config=TCPConfig(max_rto=2.0))
        conn = net.stack_a.connect("10.99.99.99", 6881)
        closed = []
        conn.on_close = lambda r: closed.append(r)
        net.sim.run(until=60.0)
        assert closed == ["timeout"]

    def test_listener_rejects_when_host_down(self):
        net = TwoHostNet()
        net.stack_b.listen(6881, lambda c: None)
        net.b.take_down()
        conn = net.stack_a.connect("10.0.0.2", 6881)
        net.sim.run(until=2.0)
        assert not conn.established

    def test_message_flood_does_not_reorder(self):
        net = TwoHostNet(seed=9, wireless=True, ber=8e-6)
        received = []

        def accept(conn):
            conn.on_message = lambda m: received.append(m.tag)

        net.stack_b.listen(6881, accept)
        client = net.stack_a.connect(net.b.ip, 6881)
        for i in range(500):
            client.send_message(Message(400, i))
        net.sim.run(until=120.0)
        assert received == list(range(500))
