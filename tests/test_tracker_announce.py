"""Tests for tracker pruning, announce scheduling, and swarm discovery."""

from __future__ import annotations

import pytest

from repro.bittorrent import ClientConfig
from repro.bittorrent.client import ANNOUNCE_RETRY
from repro.bittorrent.swarm import SwarmScenario
from repro.bittorrent.tracker import TRACKER_PORT
from repro.net.mobility import disconnect_host, reconnect_host


class TestTrackerPruning:
    def test_silent_peer_pruned_after_missed_announces(self):
        sc = SwarmScenario(seed=80, file_size=256 * 1024, piece_length=65_536,
                           tracker_interval=30.0)
        sc.add_wired_peer("seed", complete=True)
        l0 = sc.add_wired_peer("l0")
        sc.start_all()
        sc.run(until=5.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 2
        # l0 vanishes without a 'stopped' event
        l0.client._sweep.stop()
        l0.client.choker.stop()
        sc.sim.cancel(l0.client._announce_event)
        l0.client._announce_event = None
        disconnect_host(l0.host, sc.internet, sc.alloc)
        # after > prune_factor * interval of silence plus another peer's
        # announce (pruning happens on handling), the record is gone
        sc.run(until=5.0 + 30.0 * 2.5 + 40.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 1

    def test_periodic_announce_refreshes_last_seen(self):
        sc = SwarmScenario(seed=81, file_size=256 * 1024, piece_length=65_536,
                           tracker_interval=20.0)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("l0")
        sc.start_all()
        sc.run(until=150.0)
        # both keep announcing; nobody is pruned
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 2
        assert sc.tracker.announces >= 10


class TestAnnounceRecovery:
    def test_announce_retries_while_host_down(self):
        sc = SwarmScenario(seed=82, file_size=256 * 1024, piece_length=65_536)
        l0 = sc.add_wired_peer("l0")
        disconnect_host(l0.host, sc.internet, sc.alloc)
        l0.client.start()  # start while down: announce must defer, not crash
        sc.run(until=15.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 0
        reconnect_host(l0.host, sc.internet, sc.alloc)
        sc.run(until=40.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 1

    def test_completed_event_updates_seed_count(self):
        sc = SwarmScenario(seed=83, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("l0")
        sc.start_all()
        assert sc.run_until_complete(["l0"], timeout=300)
        sc.run(until=sc.sim.now + 5.0)
        seeds, leeches = sc.tracker.seeds_and_leeches(sc.torrent.info_hash)
        assert seeds == 2
        assert leeches == 0

    def test_numwant_caps_response(self):
        config = ClientConfig(numwant=3)
        sc = SwarmScenario(seed=84, file_size=256 * 1024, piece_length=65_536)
        for i in range(8):
            sc.add_wired_peer(f"p{i}")
        late = sc.add_wired_peer("late", config=config)
        sc.start_all()
        sc.run(until=10.0)
        # 'late' asked for at most 3 peers per announce
        assert 0 < len(late.client.known_addresses) <= 6  # a couple announces

    def test_tracker_error_for_garbage(self):
        from repro.bittorrent.messages import TrackerError

        sc = SwarmScenario(seed=85, file_size=256 * 1024, piece_length=65_536)
        l0 = sc.add_wired_peer("l0")
        errors = []
        conn = l0.client.stack.connect(sc.torrent.tracker_ip, TRACKER_PORT)
        conn.on_message = lambda m: errors.append(m)

        class Garbage:
            wire_length = 50

        conn.send_message(Garbage())
        sc.run(until=5.0)
        assert errors and isinstance(errors[0], TrackerError)


class TestKeepSeedingPolicy:
    def test_stop_after_completion_when_configured(self):
        config = ClientConfig(keep_seeding=False)
        sc = SwarmScenario(seed=86, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        l0 = sc.add_wired_peer("l0", config=config)
        sc.start_all()
        assert sc.run_until_complete(["l0"], timeout=300)
        sc.run(until=sc.sim.now + 10.0)
        assert not l0.client.started

    def test_keep_seeding_default_stays(self):
        sc = SwarmScenario(seed=87, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        l0 = sc.add_wired_peer("l0")
        sc.start_all()
        assert sc.run_until_complete(["l0"], timeout=300)
        sc.run(until=sc.sim.now + 10.0)
        assert l0.client.started


class TestAnnounceBackoff:
    def test_backoff_doubles_with_jitter_and_caps_at_interval(self):
        sc = SwarmScenario(seed=88, file_size=256 * 1024, piece_length=65_536,
                           tracker_interval=90.0)
        l0 = sc.add_wired_peer("l0")
        client = l0.client
        client._tracker_interval_hint = 90.0
        base = ANNOUNCE_RETRY
        delays = [client._announce_backoff() for _ in range(8)]
        for i, delay in enumerate(delays):
            ideal = base * (2.0 ** i)
            # within the ±12.5% seeded jitter band, then hard-capped
            assert delay <= min(ideal * 1.125, 90.0)
            assert delay >= min(ideal * 0.875, 90.0) * 0.875
        assert delays[-1] == 90.0  # ceiling reached

    def test_success_resets_the_backoff_ladder(self):
        sc = SwarmScenario(seed=89, file_size=256 * 1024, piece_length=65_536)
        l0 = sc.add_wired_peer("l0")
        l0.client._announce_failures = 6
        sc.start_all()
        sc.run(until=10.0)  # first announce succeeds
        assert l0.client._announce_failures == 0

    def test_refused_announces_stay_bit_reproducible(self):
        # The jitter draws from a dedicated client RNG stream; a run
        # that exercises the backoff path must not perturb protocol
        # randomness, so two identical runs stay identical — the
        # digest-reproducibility contract behind result caching.
        from repro.chaos import ChaosSchedule, TrackerOutage

        def run(seed: int):
            sc = SwarmScenario(seed=seed, file_size=256 * 1024,
                               piece_length=65_536, tracker_interval=30.0)
            sc.add_chaos(ChaosSchedule(events=(
                TrackerOutage(start=2.0, duration=60.0, mode="refuse"),
            )))
            sc.add_wired_peer("seed", complete=True)
            l0 = sc.add_wired_peer("l0")
            sc.start_all()
            assert sc.run_until_complete(["l0"], timeout=400)
            return (
                l0.client.completion_time,
                l0.client.announce_count,
                l0.client._announce_failures,
                sc.sim.now,
            )

        first, second = run(123), run(123)
        assert first == second
        assert first[2] > 0 or first[1] > 2  # the outage really bit
