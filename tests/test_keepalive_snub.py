"""Tests for keep-alives."""

from __future__ import annotations

from repro.bittorrent.client import KEEPALIVE_INTERVAL
from repro.bittorrent.swarm import SwarmScenario


class TestKeepAlive:
    def test_idle_connections_get_keepalives(self):
        sc = SwarmScenario(seed=95, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        l0 = sc.add_wired_peer("l0")
        sc.start_all()
        assert sc.run_until_complete(["l0"], timeout=300)
        # after completion the connection goes idle; keep-alives flow
        sc.run(until=sc.sim.now + KEEPALIVE_INTERVAL + 30.0)
        peers = l0.client.connected_peers()
        assert peers
        assert any(p.keepalives_sent > 0 for p in peers)

    def test_busy_connections_skip_keepalives(self):
        sc = SwarmScenario(seed=96, file_size=16 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=60_000)
        l0 = sc.add_wired_peer("l0")
        sc.start_all()
        # transfer still in progress past one interval: constant traffic
        sc.run(until=KEEPALIVE_INTERVAL + 30.0)
        assert not l0.client.complete
        for p in l0.client.connected_peers():
            assert p.keepalives_sent == 0

    def test_keepalive_resets_peer_idle_clock(self):
        sc = SwarmScenario(seed=98, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        l0 = sc.add_wired_peer("l0")
        sc.start_all()
        assert sc.run_until_complete(["l0"], timeout=300)
        sc.run(until=sc.sim.now + 3 * KEEPALIVE_INTERVAL)
        # idle for three intervals: the connection survives, and each
        # keep-alive restarts its sender's idle clock (the sweep runs
        # once a second)
        (peer,) = l0.client.connected_peers()
        assert peer.keepalives_sent >= 2
        assert sc.sim.now - peer.last_sent <= KEEPALIVE_INTERVAL + 1.0
