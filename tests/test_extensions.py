"""Tests for the extension features: bulk apps and seed-LIHD."""

from __future__ import annotations

from repro.apps import BulkSender, BulkServer, ForegroundDownload
from repro.bittorrent.swarm import SwarmScenario
from repro.wp2p import seed_lihd

from tests.helpers import TwoHostNet


class TestBulkApps:
    def test_bulk_server_and_download(self):
        net = TwoHostNet()
        server = BulkServer(net.sim, net.a, port=8080)
        download = ForegroundDownload(net.sim, net.b, net.a.ip, 8080)
        net.sim.run(until=10.0)
        assert download.bytes_received > 0
        assert download.rate() > 0
        download.stop()
        server.stop()

    def test_bulk_sender_stops(self):
        net = TwoHostNet()
        received = []

        def accept(conn):
            conn.on_message = lambda m: received.append(m.wire_length)

        net.stack_b.listen(9000, accept)
        conn = net.stack_a.connect(net.b.ip, 9000)
        sender = BulkSender(net.sim, conn).start()
        net.sim.run(until=3.0)
        sender.stop()
        count = len(received)
        queued = sender.bytes_queued
        net.sim.run(until=10.0)
        assert sender.bytes_queued == queued  # nothing more queued
        assert len(received) >= count


class TestSeedLIHD:
    def build(self, with_lihd: bool, seed: int = 72):
        """A mobile seed sharing its wireless channel with a foreground
        download, plus hungry fixed leeches."""
        sc = SwarmScenario(seed=seed, file_size=8 * 1024 * 1024, piece_length=65_536)
        for i in range(3):
            sc.add_wired_peer(f"f{i}", down_rate=500_000, up_rate=48_000)
        mob = sc.add_wireless_peer("mobseed", complete=True, rate=120_000)
        # foreground web server on its own wired host
        from repro.net import Host, attach_wired_host
        from repro.tcp import TCPStack

        web = Host(sc.sim, "webserver")
        TCPStack(sc.sim, web)
        attach_wired_host(sc.sim, web, sc.internet, sc.alloc.allocate(),
                          down_rate=1_000_000, up_rate=1_000_000)
        server = BulkServer(sc.sim, web, port=8080)
        download = ForegroundDownload(sc.sim, mob.host, web.ip, 8080)
        controller = None
        if with_lihd:
            controller = seed_lihd(
                mob.client, download.rate, u_max=100_000.0, interval=3.0
            )
            controller.start()
        sc.start_all()
        sc.run(until=90.0)
        return download, mob, controller

    def test_seed_lihd_protects_foreground_download(self):
        unprotected, _, _ = self.build(with_lihd=False)
        protected, mob, controller = self.build(with_lihd=True)
        assert controller is not None and controller.history
        # the controller must deliver a clearly better foreground download
        assert protected.bytes_received > unprotected.bytes_received * 1.15

    def test_seed_still_uploads_under_lihd(self):
        _, mob, controller = self.build(with_lihd=True)
        assert mob.client.uploaded.total > 0
        assert controller.u_cur >= controller.u_floor
