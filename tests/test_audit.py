"""The invariant-audit harness (repro.audit).

Two families of tests:

* **Alarm-ring** — every checker must actually fire: build a healthy
  component, deliberately corrupt its state, and assert the auditor
  reports a violation from exactly that checker.  A checker that stays
  silent on a broken fixture is dead weight.
* **Silence** — registered scenarios and the canonical topologies must
  run clean under full auditing at default parameters.

Plus regression tests for ``TokenBucket.set_rate`` (the burst follows
the rate and clamps the tokens on hand) and for a bug the harness's
construction surfaced: ``RTTEstimator.backoff`` driving its multiplier
below 1 when the RTO already exceeds ``max_rto``.
"""

from __future__ import annotations

import pytest

from repro import audit
from repro.audit import Auditor, AuditViolation
from repro.bittorrent.rate import TokenBucket
from repro.net import AddressAllocator, Host, Internet, attach_wired_host, attach_wireless_host
from repro.sim import Simulator
from repro.tcp.rtt import RTTEstimator

from tests.helpers import Message, TwoHostNet


def collecting(sim: Simulator) -> Auditor:
    """Attach a collect-mode auditor (violations recorded, not raised)."""
    return Auditor(raise_on_violation=False).attach(sim)


def checkers_fired(auditor: Auditor) -> set:
    return {v.checker for v in auditor.violations}


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_off_by_default(self):
        sim = Simulator(seed=1)
        assert sim.audit is None
        sim.schedule(1.0, lambda: None)
        sim.run()  # no auditor in the loop

    def test_install_attaches_new_simulators(self):
        with audit.audited() as auditors:
            sim = Simulator(seed=1)
            assert isinstance(sim.audit, Auditor)
            assert sim.audit in auditors
        assert Simulator(seed=2).audit is None

    def test_audited_context_keeps_auditors_inspectable(self):
        with audit.audited(raise_on_violation=False) as auditors:
            sim = Simulator(seed=3)
            sim.schedule(0.5, lambda: None)
            sim.run()
        assert len(auditors) == 1
        assert auditors[0].sweeps >= 1
        assert auditors[0].ok

    def test_attach_is_exclusive(self):
        sim = Simulator(seed=1)
        collecting(sim)
        with pytest.raises(RuntimeError):
            Auditor().attach(sim)

    def test_violation_raises_by_default(self):
        sim = Simulator(seed=1)
        auditor = Auditor().attach(sim)
        auditor.before_event(5.0)
        with pytest.raises(AuditViolation, match="backwards"):
            auditor.before_event(1.0)


# ----------------------------------------------------------------------
# Alarm-ring: kernel and trace stream
# ----------------------------------------------------------------------
class TestKernelAndTraceAlarms:
    def test_event_monotonicity(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        auditor.before_event(5.0)
        auditor.before_event(1.0)
        assert "sim.event_monotonic" in checkers_fired(auditor)

    def test_trace_time_monotonicity(self):
        auditor = collecting(Simulator(seed=1))
        auditor.write({"t": 5.0, "layer": "sim", "event": "x"})
        auditor.write({"t": 1.0, "layer": "sim", "event": "x"})
        assert "trace.time_monotonic" in checkers_fired(auditor)

    def test_negative_announce_left(self):
        auditor = collecting(Simulator(seed=1))
        auditor.write({"t": 0.0, "layer": "bittorrent", "event": "announce",
                       "client": "c", "left": -1})
        assert "bittorrent.announce" in checkers_fired(auditor)

    def test_progress_regression_and_range(self):
        auditor = collecting(Simulator(seed=1))
        rec = {"t": 0.0, "layer": "bittorrent", "event": "piece_complete",
               "client": "c", "progress": 0.5}
        auditor.write(dict(rec))
        auditor.write(dict(rec, progress=0.4))
        auditor.write(dict(rec, progress=1.5))
        msgs = [v.message for v in auditor.violations]
        assert any("regressed" in m for m in msgs)
        assert any("outside" in m for m in msgs)

    def test_am_state_machine(self):
        auditor = collecting(Simulator(seed=1))
        rec = {"t": 0.0, "layer": "wp2p", "event": "am_state",
               "host": "m", "flow": "f", "status": "young"}
        auditor.write(dict(rec))
        assert auditor.ok  # first report for a flow is a transition
        auditor.write(dict(rec))  # young -> young is not a transition
        auditor.write(dict(rec, status="senile"))
        assert [v.checker for v in auditor.violations] == ["wp2p.am", "wp2p.am"]

    def test_ma_fetch_mode_machine(self):
        auditor = collecting(Simulator(seed=1))
        rec = {"t": 0.0, "layer": "wp2p", "event": "ma_fetch_mode",
               "client": "m", "mode": "rarest", "pr": 0.5}
        auditor.write(dict(rec))
        assert auditor.ok
        auditor.write(dict(rec))  # rarest -> rarest is not a flip
        auditor.write(dict(rec, mode="alphabetical"))
        auditor.write(dict(rec, mode="sequential", pr=1.5))
        fired = [v.checker for v in auditor.violations]
        assert fired == ["wp2p.ma"] * 3

    def test_lihd_update_record(self):
        auditor = collecting(Simulator(seed=1))
        auditor.write({"t": 0.0, "layer": "wp2p", "event": "lihd_update",
                       "client": "m", "decision": "oscillate", "dec_count": -2})
        assert len(auditor.violations) == 2
        assert checkers_fired(auditor) == {"wp2p.lihd"}


# ----------------------------------------------------------------------
# Alarm-ring: net layer
# ----------------------------------------------------------------------
class TestNetAlarms:
    def _wired(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        internet = Internet(sim)
        host = Host(sim, "h")
        link = attach_wired_host(sim, host, internet, "10.0.0.1")
        return sim, auditor, link

    def test_queue_packet_conservation(self):
        sim, auditor, link = self._wired()
        link.uplink.queue.enqueued += 1
        auditor.sweep()
        assert "net.queue" in checkers_fired(auditor)

    def test_queue_byte_conservation(self):
        sim, auditor, link = self._wired()
        link.uplink.queue.bytes_enqueued += 40
        auditor.sweep()
        assert "net.queue" in checkers_fired(auditor)

    def test_link_direction_accounting(self):
        sim, auditor, link = self._wired()
        link.uplink.packets_sent += 1
        auditor.sweep()
        assert "net.link" in checkers_fired(auditor)

    def test_wireless_arrival_map_leak(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        internet = Internet(sim)
        host = Host(sim, "m")
        channel = attach_wireless_host(sim, host, internet, "10.0.1.1")
        channel._up_order.append(999)  # ticket with no queued packet
        auditor.sweep()
        assert "net.wireless" in checkers_fired(auditor)

    def test_wireless_loss_record_mismatch(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        internet = Internet(sim)
        host = Host(sim, "m")
        channel = attach_wireless_host(sim, host, internet, "10.0.1.1")
        channel.frames_lost += 1  # a lost frame with no lost bytes
        auditor.sweep()
        assert "net.wireless" in checkers_fired(auditor)


# ----------------------------------------------------------------------
# Alarm-ring: token bucket and TCP
# ----------------------------------------------------------------------
class TestTransportAlarms:
    def test_bucket_negative_balance(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        bucket = TokenBucket(sim, rate=100.0)
        bucket._tokens = -5.0
        auditor.sweep()
        assert "bittorrent.bucket" in checkers_fired(auditor)

    def test_bucket_negative_burst(self):
        sim = Simulator(seed=1)
        auditor = collecting(sim)
        bucket = TokenBucket(sim, rate=None)
        bucket.burst = -1.0
        auditor.sweep()
        assert "bittorrent.bucket" in checkers_fired(auditor)

    def _pair(self):
        net = TwoHostNet()
        auditor = collecting(net.sim)
        server_conns = []
        net.stack_b.listen(7000, server_conns.append)
        conn = net.stack_a.connect(net.b.ip, 7000)
        net.sim.run(until=1.0)
        assert conn.established and server_conns
        for _ in range(20):
            conn.send_message(Message(1000))
        net.sim.run(until=3.0)
        return net, auditor, conn, server_conns[0]

    def test_tcp_backoff_below_one(self):
        net, auditor, conn, _ = self._pair()
        conn.rtt._backoff = 0.5
        auditor.sweep()
        assert "tcp.connection" in checkers_fired(auditor)

    def test_tcp_sequence_disorder(self):
        net, auditor, conn, _ = self._pair()
        conn.snd.una = conn.snd.nxt + 1000
        auditor.sweep()
        assert "tcp.connection" in checkers_fired(auditor)

    def test_tcp_pair_receiver_ahead_of_sender(self):
        net, auditor, conn, server = self._pair()
        server.rcv.rcv_nxt += 10**9
        auditor.sweep()
        assert "tcp.pair" in checkers_fired(auditor)

    def test_tcp_clean_pair_is_silent(self):
        net, auditor, conn, _ = self._pair()
        net.sim.run(until=10.0)
        assert auditor.ok, auditor.violations


# ----------------------------------------------------------------------
# Alarm-ring: BitTorrent client state and wP2P controllers
# ----------------------------------------------------------------------
class TestBitTorrentAlarms:
    def _swarm(self):
        from repro.bittorrent.swarm import SwarmScenario

        with audit.audited(raise_on_violation=False) as auditors:
            scenario = SwarmScenario(seed=7, file_size=128 * 1024)
            scenario.add_wired_peer("seed0", complete=True)
            leech = scenario.add_wired_peer("leech0")
            scenario.start_all()
            scenario.run(until=10.0)
        (auditor,) = auditors
        assert auditor.ok, auditor.violations
        return scenario, auditor, leech.client

    def test_bitfield_byte_counter_mismatch(self):
        scenario, auditor, client = self._swarm()
        client.manager.bytes_completed += 1
        auditor.sweep()
        assert "bittorrent.client" in checkers_fired(auditor)

    def test_availability_desync(self):
        scenario, auditor, client = self._swarm()
        client.availability[0] = client.availability.get(0, 0) + 99
        auditor.sweep()
        assert "bittorrent.client" in checkers_fired(auditor)

    def test_ledger_credit_exceeds_delivery(self):
        scenario, auditor, client = self._swarm()
        client.ledger._credit["phantom"] = (10**9, scenario.sim.now)
        auditor.sweep()
        fired = [v for v in auditor.violations if "ledger" in v.message]
        assert fired and fired[0].checker == "bittorrent.client"

    def test_transfer_conservation(self):
        scenario, auditor, client = self._swarm()
        auditor.note_block_received(client, "phantom-uploader", 4096)
        auditor.sweep()
        assert "bittorrent.transfer" in checkers_fired(auditor)

    def test_am_status_contradicts_cwnd(self):
        from repro.wp2p.age_manipulation import (
            MATURE, AgeBasedManipulation, _FlowState,
        )

        sim = Simulator(seed=1)
        auditor = collecting(sim)
        host = Host(sim, "m")
        am = AgeBasedManipulation(sim, host)
        am._flows[(6881, "10.0.0.2", 6881)] = _FlowState(
            cwnd_estimate=0, status=MATURE  # 0 < gamma must be YOUNG
        )
        auditor.sweep()
        assert "wp2p.am" in checkers_fired(auditor)

    def test_lihd_cap_out_of_band(self):
        from repro.wp2p.incentive_aware import LIHDController

        scenario, auditor, client = self._swarm()
        lihd = LIHDController(client, u_max=30_000.0)
        lihd.start()
        lihd.u_cur = lihd.u_floor - 1.0
        auditor.sweep()
        assert "wp2p.lihd" in checkers_fired(auditor)

    def test_lihd_bucket_disagreement(self):
        from repro.wp2p.incentive_aware import LIHDController

        scenario, auditor, client = self._swarm()
        lihd = LIHDController(client, u_max=30_000.0)
        lihd.start()
        client.upload_bucket.set_rate(99_999.0)  # behind LIHD's back
        auditor.sweep()
        assert "wp2p.lihd" in checkers_fired(auditor)


# ----------------------------------------------------------------------
# Silence: healthy topologies raise nothing under full auditing
# ----------------------------------------------------------------------
class TestCleanRuns:
    def test_transfer_clean_under_audit(self):
        from repro.experiments.base import run_transfer

        with audit.audited() as auditors:
            run_transfer(seed=5, ber=1e-5, bidirectional=True, duration=20.0)
        assert auditors and all(a.ok for a in auditors)
        assert any(a.sweeps > 0 for a in auditors)

    def test_swarm_clean_under_audit(self):
        from repro.bittorrent.swarm import SwarmScenario

        with audit.audited() as auditors:
            scenario = SwarmScenario(seed=11, file_size=256 * 1024)
            scenario.add_wired_peer("seed0", complete=True, up_rate=200_000.0)
            scenario.add_wireless_peer("mobile0", ber=1e-5)
            scenario.start_all()
            scenario.run(until=60.0)
        assert auditors and all(a.ok for a in auditors)

    def test_registered_scenario_clean_via_runner(self):
        from repro.runner import Runner

        runner = Runner(jobs=1, audit=True)
        run = runner.run("fig2a", {"runs": 1, "duration": 20.0})
        assert run.failures == []
        assert run.stats.executed == run.stats.total_cells  # cache bypassed

    def test_runner_audit_disables_cache(self, tmp_path):
        from repro.runner import ResultCache, Runner

        runner = Runner(jobs=1, cache=ResultCache(str(tmp_path)), audit=True)
        assert runner.cache is None

    @pytest.mark.parametrize("name, backend", [("figx_scale", None), ("figx_cdn", "fluid")])
    def test_runner_refuses_to_audit_the_fluid_tier(self, name, backend):
        """No checker sees a fluid run, so an audit of one would report a
        clean run having checked nothing."""
        import repro.experiments  # noqa: F401  (registers the scenarios)
        from repro.runner import Runner

        with pytest.raises(ValueError, match="fluid tier"):
            Runner(audit=True, backend=backend).run(name, {"runs": 1})


# ----------------------------------------------------------------------
# Regression: TokenBucket.set_rate burst handling
# ----------------------------------------------------------------------
class TestTokenBucketSetRate:
    def test_default_burst_tracks_rate(self):
        sim = Simulator(seed=1)
        bucket = TokenBucket(sim, rate=10_000.0)
        bucket.set_rate(20_000.0)
        assert bucket.burst == 20_000.0
        bucket.set_rate(None)  # disabled: no stale balance survives
        assert bucket.burst == 0.0 and bucket.tokens == 0.0
        bucket.set_rate(10_000.0)
        assert bucket.burst == 10_000.0
        assert bucket.tokens == 0.0  # re-enabled empty, fills at `rate`

    def test_tokens_never_exceed_burst_across_changes(self):
        sim = Simulator(seed=1)
        bucket = TokenBucket(sim, rate=10_000.0)
        sim.schedule(100.0, lambda: None)
        sim.run()  # bucket saturates at burst
        assert bucket.tokens == pytest.approx(10_000.0)
        bucket.set_rate(50_000.0)
        assert bucket.tokens == pytest.approx(10_000.0)  # on-hand preserved
        bucket.set_rate(1_000.0)
        assert bucket.tokens == pytest.approx(1_000.0)  # clamped to the burst


# ----------------------------------------------------------------------
# Regression: RTTEstimator.backoff vs the max_rto clamp
# ----------------------------------------------------------------------
class TestRTTBackoffClamp:
    def test_backoff_never_below_one_when_rto_exceeds_max(self):
        est = RTTEstimator(initial_rto=1.0, min_rto=0.2, max_rto=60.0)
        est.sample(100.0)  # srtt=100 -> _rto = 300 > max_rto
        assert est._rto > est.max_rto
        assert est.rto == est.max_rto
        before = est.rto
        est.backoff()
        assert est._backoff >= 1.0
        assert est.rto >= before  # a timeout must never shorten the wait

    def test_backoff_sample_backoff_sequence(self):
        est = RTTEstimator(initial_rto=1.0, min_rto=0.2, max_rto=60.0)
        est.sample(100.0)
        est.backoff()
        est.backoff()
        assert est.rto == est.max_rto
        est.sample(0.1)  # recovery: fresh measurement clears the backoff
        assert est._backoff == 1.0
        for _ in range(50):  # EWMA needs a few windows to converge back
            est.sample(0.1)
        normal = est.rto
        assert normal < est.max_rto
        est.backoff()
        assert est.rto == pytest.approx(min(est.max_rto, 2.0 * normal))

    def test_repeated_backoff_doubles_then_caps(self):
        est = RTTEstimator(initial_rto=1.0, min_rto=0.2, max_rto=60.0)
        est.sample(0.5)
        waits = []
        for _ in range(10):
            est.backoff()
            assert est._backoff >= 1.0
            waits.append(est.rto)
        assert waits == sorted(waits)  # monotone non-decreasing
        assert waits[-1] == est.max_rto
