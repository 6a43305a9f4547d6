"""Determinism: a run is a pure function of its seed.

Experiments rely on this for A/B fairness (default vs wP2P see the same
environment noise) and for reproducible figures.
"""

from __future__ import annotations

from repro.bittorrent.swarm import SwarmScenario
from repro.experiments import run_transfer
from repro.wp2p import WP2PClient


def swarm_fingerprint(seed: int):
    sc = SwarmScenario(seed=seed, file_size=1024 * 1024, piece_length=65_536)
    sc.add_wired_peer("seed", complete=True, up_rate=100_000)
    sc.add_wired_peer("l0")
    mob = sc.add_wireless_peer("mob", rate=150_000, ber=5e-6,
                               client_factory=WP2PClient)
    sc.add_mobility(mob, interval=30.0, downtime=1.0)
    sc.start_all()
    sc.run(until=90.0)
    return (
        sc.sim.events_processed,
        mob.client.downloaded.total,
        mob.client.uploaded.total,
        tuple(mob.client.manager.completion_order),
        mob.channel.frames_lost,
        sc["l0"].client.downloaded.total,
        mob.client.peer_id,
    )


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        assert swarm_fingerprint(123) == swarm_fingerprint(123)

    def test_different_seeds_differ(self):
        assert swarm_fingerprint(123) != swarm_fingerprint(124)

    def test_raw_transfer_deterministic(self):
        a = run_transfer(seed=5, ber=1e-5, bidirectional=True, duration=15.0)
        b = run_transfer(seed=5, ber=1e-5, bidirectional=True, duration=15.0)
        assert a.delivered_down == b.delivered_down
        assert a.delivered_up == b.delivered_up

    def test_component_rng_isolation(self):
        """Consuming extra draws from one named stream must not perturb
        another component's stream."""
        from repro.sim import Simulator

        sim1 = Simulator(seed=9)
        sim2 = Simulator(seed=9)
        # sim2's "wireless" stream is consumed heavily before "choker" use
        for _ in range(1000):
            sim2.rng.stream("wireless.cell.loss").random()
        assert (
            sim1.rng.stream("choker.x").random()
            == sim2.rng.stream("choker.x").random()
        )

    def test_handshaking_connections_close_in_arrival_order(self, monkeypatch):
        """A restart closes the connections still handshaking in the order
        they opened, not in hash order: an object's default hash is its
        memory address, which moves from run to run (a set walk once made
        a wP2P CDN cell's event count differ between identical runs).
        Hashes that fall as connections open expose a walk in hash order."""
        from repro.bittorrent.peer import PeerConnection

        opened, closed = [], []
        init, close = PeerConnection.__init__, PeerConnection.close
        monkeypatch.setattr(PeerConnection, "__init__",
                            lambda p, *a, **k: (opened.append(p), init(p, *a, **k))[1])
        monkeypatch.setattr(PeerConnection, "__hash__", lambda p: 100 - opened.index(p))
        sc = SwarmScenario(seed=11, file_size=256 * 1024)
        for i in range(6):
            sc.add_wired_peer(f"p{i}", complete=True)
        leech = sc.add_wired_peer("leech")
        sc.start_all()
        sc.run(until=0.75)  # six handshakes in flight, none finished
        pending = [p for p in opened if p.client is leech.client]
        assert len(pending) == 6 and not leech.client.peers
        monkeypatch.setattr(PeerConnection, "close",
                            lambda p, reason="closed": (closed.append(p), close(p, reason)))
        leech.client._close_all_connections("restart")
        assert closed == pending
