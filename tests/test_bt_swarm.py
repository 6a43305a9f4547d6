"""Integration tests: full swarms over the simulated network."""

from __future__ import annotations

import pytest

from repro.bittorrent import ClientConfig, SequentialSelector
from repro.bittorrent.swarm import SwarmScenario


class TestBasicSwarm:
    def test_single_leech_completes(self):
        sc = SwarmScenario(seed=1, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("leech")
        sc.start_all()
        assert sc.run_until_complete(["leech"], timeout=300)
        assert sc["leech"].client.downloaded.total == 512 * 1024

    def test_leeches_exchange_pieces(self):
        sc = SwarmScenario(seed=2, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=100_000)
        sc.add_wired_peer("l1")
        sc.add_wired_peer("l2")
        sc.start_all()
        assert sc.run_until_complete(["l1", "l2"], timeout=600)
        # with a slow seed, leech-to-leech upload must have happened
        assert sc["l1"].client.uploaded.total + sc["l2"].client.uploaded.total > 0

    def test_completed_leech_seeds_others(self):
        sc = SwarmScenario(seed=3, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("early")
        sc.start_all()
        assert sc.run_until_complete(["early"], timeout=300)
        late = sc.add_wired_peer("late")
        late.client.start()
        assert sc.run_until_complete(["late"], timeout=300)
        assert sc["early"].client.uploaded.total > 0

    def test_completion_time_recorded(self):
        sc = SwarmScenario(seed=4, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("leech")
        sc.start_all()
        sc.run_until_complete(["leech"], timeout=300)
        assert sc["leech"].client.completion_time is not None
        assert 0 < sc["leech"].client.completion_time <= sc.sim.now

    def test_wireless_leech_completes(self):
        sc = SwarmScenario(seed=5, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wireless_peer("mob", rate=100_000, ber=1e-6)
        sc.start_all()
        assert sc.run_until_complete(["mob"], timeout=600)

    def test_sequential_selector_downloads_in_order(self):
        sc = SwarmScenario(seed=6, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("leech", selector=SequentialSelector())
        sc.start_all()
        assert sc.run_until_complete(["leech"], timeout=300)
        order = sc["leech"].client.manager.completion_order
        assert order == sorted(order)

    def test_rarest_first_spreads_pieces(self):
        """With several leeches, rarest-first should not fetch in file order."""
        sc = SwarmScenario(seed=7, file_size=1024 * 1024, piece_length=32_768)
        sc.add_wired_peer("seed", complete=True, up_rate=100_000)
        for i in range(3):
            sc.add_wired_peer(f"l{i}")
        sc.start_all()
        assert sc.run_until_complete(timeout=900)
        order = sc["l0"].client.manager.completion_order
        assert order != sorted(order)


class TestChoking:
    def test_choker_limits_unchoked_peers(self):
        config = ClientConfig(unchoke_slots=1, optimistic_every=3)
        sc = SwarmScenario(seed=8, file_size=2 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, up_rate=100_000, config=config)
        for i in range(4):
            sc.add_wired_peer(f"l{i}")
        sc.start_all()
        sc.run(until=30.0)
        seed_client = sc["seed"].client
        unchoked = [p for p in seed_client.connected_peers() if not p.am_choking]
        assert 0 < len(unchoked) <= 2  # 1 slot + optimistic

    def test_upload_limit_enforced(self):
        config = ClientConfig(upload_limit=20_000.0)
        sc = SwarmScenario(seed=9, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True, config=config)
        sc.add_wired_peer("leech")
        sc.start_all()
        sc.run(until=20.0)
        uploaded = sc["seed"].client.uploaded.total
        # bucket burst is one second of rate; allow slack
        assert uploaded <= 20_000.0 * 21

    def test_zero_upload_leech_still_served_by_seed_optimistic(self):
        config = ClientConfig(upload_limit=0.0)
        sc = SwarmScenario(seed=10, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("freerider", config=config)
        sc.start_all()
        assert sc.run_until_complete(["freerider"], timeout=300)


class TestMobilitySwarm:
    def test_default_client_restarts_with_new_id(self):
        sc = SwarmScenario(seed=11, file_size=2 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=150_000)
        sc.add_mobility(mob, interval=20.0, downtime=1.0)
        sc.start_all()
        ids = {mob.client.peer_id}
        for _ in range(4):
            sc.run(until=sc.sim.now + 15.0)
            ids.add(mob.client.peer_id)
        assert len(ids) >= 2
        assert mob.client.task_restarts >= 1

    def test_download_survives_handoffs(self):
        sc = SwarmScenario(seed=12, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=200_000)
        sc.add_mobility(mob, interval=30.0, downtime=1.0)
        sc.start_all()
        assert sc.run_until_complete(["mob"], timeout=900)

    def test_fixed_peer_keeps_stale_connection_attempts(self):
        """After the mobile moves, fixed peers' connections to the old
        address strand and die by RTO — the §3.5 stranding behaviour."""
        sc = SwarmScenario(seed=13, file_size=4 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("fixed")
        mob = sc.add_wireless_peer("mobseed", complete=True, rate=200_000)
        sc.start_all()
        sc.run(until=15.0)
        fixed = sc["fixed"].client
        assert len(fixed.connected_peers()) >= 1
        from repro.net.mobility import disconnect_host, reconnect_host

        disconnect_host(mob.host, sc.internet, sc.alloc)
        reconnect_host(mob.host, sc.internet, sc.alloc)
        # stop the mobile's own recovery so only the fixed side acts
        mob.client.stop(announce=False)
        sc.run(until=sc.sim.now + 5.0)
        assert sc.internet.unroutable > 0
