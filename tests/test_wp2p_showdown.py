"""Integration showdown: the full wP2P client vs the default client in one
hostile scenario combining everything the paper studies — lossy shared
wireless channel, periodic IP handoffs, competitive swarm.

This is the paper's bottom line: same environment, same swarm, the only
difference is the client software on the mobile host.
"""

from __future__ import annotations

import pytest

from repro.bittorrent import ClientConfig
from repro.bittorrent.swarm import SwarmScenario
from repro.media import playable_fraction
from repro.wp2p import WP2PClient, WP2PConfig


FIXED_LEECHERS = tuple(f"c{i}" for i in range(6))


def hostile_run(use_wp2p: bool, seed: int = 202) -> dict:
    """One hostile run to 200 s, then on to 300 s (runs compose exactly):
    the facts each test reads, at both times."""
    sc = SwarmScenario(
        seed=seed, file_size=48 * 1024 * 1024, piece_length=131_072,
        tracker_interval=60.0,
    )
    competitor_cfg = ClientConfig(
        unchoke_slots=2, optimistic_every=5, choke_interval=5.0,
        ledger_half_life=120.0,
    )
    for i in range(2):
        sc.add_wired_peer(f"s{i}", complete=True, up_rate=80_000, config=competitor_cfg)
    for name in FIXED_LEECHERS:
        sc.add_wired_peer(name, up_rate=60_000, config=competitor_cfg)
    if use_wp2p:
        cfg = WP2PConfig(unchoke_slots=2, choke_interval=5.0)
        mob = sc.add_wireless_peer(
            "mob", rate=400_000, ber=2e-6, config=cfg, client_factory=WP2PClient
        )
    else:
        cfg = ClientConfig(unchoke_slots=2, choke_interval=5.0, task_restart_delay=15.0)
        mob = sc.add_wireless_peer("mob", rate=400_000, ber=2e-6, config=cfg)
    sc.add_mobility(mob, interval=60.0, downtime=1.0, jitter=5.0)
    sc.start_all()
    sc.run(until=200.0)
    client = mob.client
    facts = {"playable_200": playable_fraction(sc.torrent, client.manager.bitfield)}
    if use_wp2p:
        facts["reconnections_200"] = client.reconnections
        facts["identity_retained_200"] = (
            client.identity.recall(client.torrent.info_hash) == client.peer_id
        )
    sc.run(until=300.0)
    facts["mobile_bytes_300"] = client.downloaded.total
    facts["fixed_bytes_300"] = sum(sc[name].client.downloaded.total for name in FIXED_LEECHERS)
    return facts


@pytest.fixture(scope="module")
def default():
    return hostile_run(use_wp2p=False)


@pytest.fixture(scope="module")
def wp2p():
    return hostile_run(use_wp2p=True)


class TestShowdown:
    def test_wp2p_downloads_more_in_hostile_environment(self, default, wp2p):
        assert wp2p["mobile_bytes_300"] > default["mobile_bytes_300"]

    def test_wp2p_keeps_content_playable(self, default, wp2p):
        # if the network vanished at 200 s, the wP2P user has at least as
        # much in-sequence content (normally far more)
        assert wp2p["playable_200"] >= default["playable_200"]

    def test_wp2p_keeps_single_identity(self, wp2p):
        assert wp2p["reconnections_200"] >= 2
        assert wp2p["identity_retained_200"]

    def test_backward_compatibility_fixed_peers_unaffected(self, default, wp2p):
        """The six fixed leechers download as much whether the mobile host
        runs wP2P or the default client (wP2P is wire-compatible).  None
        finishes its 48 MiB file by 300 s, so bytes, not completions, are
        what can move."""
        assert wp2p["fixed_bytes_300"] >= 0.95 * default["fixed_bytes_300"]
