"""Scale and churn tests: larger swarms, flash crowds, staggered arrivals."""

from __future__ import annotations

import pytest

from repro.bittorrent import ClientConfig
from repro.bittorrent.swarm import SwarmScenario


class TestScale:
    def test_twenty_peer_swarm_completes(self):
        sc = SwarmScenario(seed=300, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=100_000)
        for i in range(19):
            sc.add_wired_peer(f"l{i}", up_rate=60_000)
        sc.start_all()
        assert sc.run_until_complete(timeout=900)
        # pieces flowed between leeches, not only from the seed
        leech_upload = sum(sc[f"l{i}"].client.uploaded.total for i in range(19))
        assert leech_upload > sc.torrent.total_size  # replicated many times

    def test_flash_crowd_on_single_seed(self):
        """Ten peers arrive within a second of each other at one seed."""
        sc = SwarmScenario(seed=301, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=80_000)
        for i in range(10):
            sc.add_wired_peer(f"l{i}")
        sc.start_all()
        assert sc.run_until_complete(timeout=900)

    def test_staggered_arrivals_all_complete(self):
        sc = SwarmScenario(seed=302, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=60_000)
        names = []
        for i in range(6):
            handle = sc.add_wired_peer(f"l{i}")
            names.append(f"l{i}")
            sc.sim.schedule(i * 20.0, handle.client.start)
        sc["seed"].client.start()
        assert sc.run_until_complete(names, timeout=1200)

    def test_seed_departure_after_full_replication(self):
        """Once one leech completes, the original seed can leave and the
        swarm still self-sustains."""
        sc = SwarmScenario(seed=303, file_size=512 * 1024, piece_length=65_536)
        seed = sc.add_wired_peer("seed", complete=True, up_rate=150_000)
        first = sc.add_wired_peer("first", down_rate=500_000, up_rate=100_000)
        late_names = []
        for i in range(3):
            sc.add_wired_peer(f"late{i}")
            late_names.append(f"late{i}")
        sc.start_all()
        assert sc.run_until_complete(["first"], timeout=600)
        seed.client.stop()
        from repro.net.mobility import disconnect_host

        disconnect_host(seed.host, sc.internet, sc.alloc)
        assert sc.run_until_complete(late_names, timeout=900)

    def test_many_mobile_peers_simultaneously(self):
        sc = SwarmScenario(seed=304, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=150_000)
        names = []
        for i in range(4):
            handle = sc.add_wireless_peer(f"m{i}", rate=200_000)
            sc.add_mobility(handle, interval=40.0, downtime=1.0, jitter=8.0)
            names.append(f"m{i}")
        sc.start_all()
        assert sc.run_until_complete(names, timeout=1200)
