"""Unit tests for the LIHD control law with a scripted rate source.

These pin down the Figure 6 pseudo-code exactly: linear increase on
improvement, history-weighted decrease on stagnation, initialization at
Umax/2, and the bounds.
"""

from __future__ import annotations

import pytest

from repro.bittorrent.swarm import SwarmScenario
from repro.wp2p import LIHDController, seed_lihd


def make_client(seed=90):
    sc = SwarmScenario(seed=seed, file_size=256 * 1024, piece_length=65_536)
    handle = sc.add_wired_peer("x")
    return sc, handle.client


class ScriptedRate:
    """A rate source that replays a fixed schedule of window rates."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self) -> float:
        value = self.values[min(self.calls, len(self.values) - 1)]
        self.calls += 1
        return value


class TestLIHDControlLaw:
    def run_windows(self, sc, controller, n):
        controller.start()
        sc.run(until=sc.sim.now + controller._task.interval * n + 0.001)

    def test_initialises_at_half_umax(self):
        sc, client = make_client()
        c = LIHDController(client, u_max=80_000.0, rate_source=ScriptedRate([0]))
        assert c.u_cur == 40_000.0

    def test_linear_increase_on_improvement(self):
        sc, client = make_client()
        # rates strictly increasing: after the first nonzero window, every
        # update should add alpha
        rates = ScriptedRate([100, 200, 300, 400, 500])
        c = LIHDController(client, u_max=200_000.0, alpha=1_000.0, beta=1_000.0,
                           interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 5)
        # first window only records d_prev; each following one adds alpha
        assert c.u_cur == pytest.approx(100_000.0 + 4 * 1_000.0)
        assert c._dec_count == 0

    def test_history_based_decrease_accelerates(self):
        sc, client = make_client()
        # improvement once, then stagnation: decrements grow 1x, 2x, 3x beta
        rates = ScriptedRate([100, 200, 200, 200, 200])
        c = LIHDController(client, u_max=200_000.0, alpha=1_000.0, beta=1_000.0,
                           interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 5)
        expected = 100_000.0 + 1_000.0 - (1 + 2 + 3) * 1_000.0
        assert c.u_cur == pytest.approx(expected)

    def test_improvement_resets_decrement_counter(self):
        sc, client = make_client()
        rates = ScriptedRate([100, 50, 40, 200, 300])
        c = LIHDController(client, u_max=200_000.0, alpha=1_000.0, beta=1_000.0,
                           interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 5)
        assert c._dec_count == 0

    def test_floor_and_ceiling_respected(self):
        sc, client = make_client()
        rates = ScriptedRate([100] + [50] * 50)  # perpetual stagnation
        c = LIHDController(client, u_max=20_000.0, alpha=1_000.0, beta=5_000.0,
                           interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 30)
        assert c.u_cur == pytest.approx(c.u_floor)

        rates_up = ScriptedRate([100] + list(range(200, 20_000, 100)))
        c2 = LIHDController(client, u_max=20_000.0, alpha=50_000.0, beta=1_000.0,
                            interval=1.0, rate_source=rates_up)
        self.run_windows(sc, c2, 10)
        assert c2.u_cur == pytest.approx(20_000.0)

    def test_zero_first_window_records_baseline_only(self):
        sc, client = make_client()
        rates = ScriptedRate([0, 0, 100, 200])
        c = LIHDController(client, u_max=100_000.0, alpha=1_000.0, beta=1_000.0,
                           interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 4)
        # d_prev stayed 0 through the zero windows (Figure 6 line 4 guard),
        # so only the final improving window changed the rate
        assert c.u_cur == pytest.approx(50_000.0 + 1_000.0)

    def test_upload_cap_applied_to_bucket(self):
        sc, client = make_client()
        rates = ScriptedRate([100, 200])
        c = LIHDController(client, u_max=60_000.0, interval=1.0, rate_source=rates)
        c.start()
        assert client.upload_bucket.rate == pytest.approx(30_000.0)

    def test_stop_halts_updates(self):
        sc, client = make_client()
        rates = ScriptedRate([100, 200, 300])
        c = LIHDController(client, u_max=60_000.0, interval=1.0, rate_source=rates)
        c.start()
        c.stop()
        sc.run(until=10.0)
        assert rates.calls == 0

    def test_seed_lihd_factory_wires_rate_source(self):
        sc, client = make_client()
        rates = ScriptedRate([100, 200, 300])
        c = seed_lihd(client, rates, u_max=40_000.0, interval=1.0)
        self.run_windows(sc, c, 3)
        assert rates.calls == 3
        assert c.u_cur > 20_000.0  # improving foreground -> raised cap

    def test_history_records_every_window(self):
        sc, client = make_client()
        rates = ScriptedRate([100, 200, 300])
        c = LIHDController(client, u_max=40_000.0, interval=1.0, rate_source=rates)
        self.run_windows(sc, c, 3)
        assert len(c.history) == 3
        times = [t for t, _, _ in c.history]
        assert times == sorted(times)
