"""Tests for Incentive-Aware and Mobility-Aware components and WP2PClient."""

from __future__ import annotations

import random

import pytest

from repro.bittorrent import SelectionContext
from repro.bittorrent.swarm import SwarmScenario
from repro.wp2p import (
    IdentityRetention,
    LIHDController,
    MobilityAwareSelector,
    WP2PClient,
    WP2PConfig,
    exponential_progress_schedule,
    linear_progress_schedule,
    stability_schedule,
)


def ctx(progress=0.0, availability=None, now=0.0, seed=0):
    return SelectionContext(
        availability=availability or {},
        progress=progress,
        now=now,
        rng=random.Random(seed),
    )


class TestPrSchedules:
    def test_linear_equals_progress(self):
        assert linear_progress_schedule(ctx(progress=0.3)) == pytest.approx(0.3)
        assert linear_progress_schedule(ctx(progress=0.0)) == 0.0
        assert linear_progress_schedule(ctx(progress=1.5)) == 1.0

    def test_exponential_endpoints(self):
        sched = exponential_progress_schedule(p0=0.2)
        assert sched(ctx(progress=0.0)) == pytest.approx(0.2)
        assert sched(ctx(progress=1.0)) == pytest.approx(1.0)

    def test_exponential_monotone(self):
        sched = exponential_progress_schedule(p0=0.2)
        values = [sched(ctx(progress=p / 10)) for p in range(11)]
        assert values == sorted(values)

    def test_exponential_invalid_p0(self):
        with pytest.raises(ValueError):
            exponential_progress_schedule(p0=0.0)

    def test_stability_schedule(self):
        import math

        sched = stability_schedule(tau=10.0, connected_since=lambda: 0.0)
        assert sched(ctx(now=0.0)) == pytest.approx(0.0)
        assert sched(ctx(now=10.0)) == pytest.approx(1 - math.exp(-1), abs=0.01)
        assert sched(ctx(now=1000.0)) > 0.99

    def test_stability_invalid_tau(self):
        with pytest.raises(ValueError):
            stability_schedule(tau=0, connected_since=lambda: 0.0)


class TestMobilityAwareSelector:
    def test_all_sequential_at_zero_progress(self):
        sel = MobilityAwareSelector()
        for seed in range(10):
            assert sel.choose([5, 2, 9], ctx(progress=0.0, seed=seed)) == 2
        assert sel.sequential_choices == 10
        assert sel.rarest_choices == 0

    def test_all_rarest_at_full_progress(self):
        sel = MobilityAwareSelector()
        availability = {5: 1, 2: 9, 9: 9}
        for seed in range(10):
            assert sel.choose([5, 2, 9], ctx(progress=1.0, availability=availability, seed=seed)) == 5
        assert sel.rarest_choices == 10

    def test_mixes_at_half_progress(self):
        sel = MobilityAwareSelector()
        availability = {5: 1, 2: 9}
        picks = {
            sel.choose([5, 2], ctx(progress=0.5, availability=availability, seed=s))
            for s in range(40)
        }
        assert picks == {2, 5}  # both strategies exercised

    def test_empty_candidates(self):
        assert MobilityAwareSelector().choose([], ctx()) is None


class TestIdentityRetention:
    def test_remember_recall(self):
        ident = IdentityRetention()
        ident.remember("ih1", "peer-a")
        assert ident.recall("ih1") == "peer-a"
        assert ident.recall("ih2") is None

    def test_per_swarm_scoping(self):
        ident = IdentityRetention()
        ident.remember("ih1", "peer-a")
        ident.remember("ih2", "peer-b")
        assert ident.recall("ih1") == "peer-a"
        assert ident.recall("ih2") == "peer-b"


class TestLIHD:
    def make_scenario(self, u_max=50_000.0, **lihd_kwargs):
        sc = SwarmScenario(seed=21, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        cfg = WP2PConfig(lihd_u_max=u_max, am_enabled=False)
        for key, value in lihd_kwargs.items():
            setattr(cfg, f"lihd_{key}", value)
        mob = sc.add_wireless_peer(
            "mob", rate=100_000, config=cfg, client_factory=WP2PClient
        )
        return sc, mob

    def test_initializes_at_half_umax(self):
        sc, mob = self.make_scenario(u_max=40_000.0)
        assert mob.client.lihd is not None
        assert mob.client.lihd.u_cur == pytest.approx(20_000.0)

    def test_rate_applied_to_bucket(self):
        sc, mob = self.make_scenario(u_max=40_000.0)
        sc.start_all()
        sc.run(until=2.0)
        assert mob.client.upload_bucket.rate == pytest.approx(20_000.0)

    def test_adjusts_over_time(self):
        sc, mob = self.make_scenario(u_max=40_000.0, interval=2.0)
        sc.start_all()
        sc.run(until=60.0)
        lihd = mob.client.lihd
        assert len(lihd.history) >= 10
        rates = {u for _, u, _ in lihd.history}
        assert len(rates) > 1  # controller actually moved

    def test_respects_bounds(self):
        sc, mob = self.make_scenario(u_max=30_000.0, interval=1.0, alpha=50_000.0, beta=50_000.0)
        sc.start_all()
        sc.run(until=60.0)
        for _, u, _ in mob.client.lihd.history:
            assert mob.client.lihd.u_floor <= u <= 30_000.0

    def test_parameter_validation(self):
        sc = SwarmScenario(seed=22, file_size=256 * 1024, piece_length=65_536)
        peer = sc.add_wired_peer("p")
        with pytest.raises(ValueError):
            LIHDController(peer.client, u_max=0)
        with pytest.raises(ValueError):
            LIHDController(peer.client, u_max=100_000.0, alpha=0)
        with pytest.raises(ValueError):  # a ceiling below the floor
            LIHDController(peer.client, u_max=LIHDController.u_floor / 2)


class TestWP2PClient:
    def test_identity_retained_across_handoff(self):
        sc = SwarmScenario(seed=23, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=150_000, client_factory=WP2PClient)
        sc.add_mobility(mob, interval=15.0, downtime=1.0)
        sc.start_all()
        original_id = mob.client.peer_id
        sc.run(until=60.0)
        assert mob.client.reconnections >= 2
        assert mob.client.peer_id == original_id

    def test_tracker_sees_single_record_for_wp2p(self):
        sc = SwarmScenario(seed=24, file_size=2 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=150_000, client_factory=WP2PClient)
        sc.add_mobility(mob, interval=15.0, downtime=1.0)
        sc.start_all()
        sc.run(until=70.0)
        # same peer id re-announced: exactly seed + mob in the swarm
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 2

    def test_role_reversal_reconnects_quickly(self):
        sc = SwarmScenario(seed=25, file_size=4 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("fixed")
        mob = sc.add_wireless_peer(
            "mobseed", complete=True, rate=200_000, client_factory=WP2PClient
        )
        sc.start_all()
        sc.run(until=15.0)
        from repro.net.mobility import disconnect_host, reconnect_host

        disconnect_host(mob.host, sc.internet, sc.alloc)
        reconnect_host(mob.host, sc.internet, sc.alloc)
        # role reversal delay is 0.5 s; within a few seconds the mobile has
        # re-initiated connections toward its stored peers
        sc.run(until=sc.sim.now + 5.0)
        assert any(
            p.remote_ip == sc["fixed"].host.ip
            for p in mob.client.connected_peers()
        )

    def test_components_toggleable(self):
        sc = SwarmScenario(seed=26, file_size=256 * 1024, piece_length=65_536)
        cfg = WP2PConfig(
            am_enabled=False,
            mobility_aware_fetching=False,
            identity_retention=False,
            role_reversal=False,
        )
        mob = sc.add_wireless_peer("mob", config=cfg, client_factory=WP2PClient)
        assert mob.client.am is None
        assert mob.client.lihd is None
        from repro.bittorrent import RarestFirstSelector

        assert isinstance(mob.client.selector, RarestFirstSelector)

    def test_wp2p_completes_download(self):
        sc = SwarmScenario(seed=27, file_size=1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        mob = sc.add_wireless_peer("mob", rate=150_000, ber=1e-6, client_factory=WP2PClient)
        sc.start_all()
        assert sc.run_until_complete(["mob"], timeout=600)
