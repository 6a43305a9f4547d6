"""Ablations of wP2P's design choices (DESIGN.md §5).

Each ablation varies one knob the paper fixes, in the setup of the
figure that knob belongs to, to show where the chosen value sits:

* ``ablation_am_gamma`` — AM's ACK-decoupling threshold γ (Figure 8(a));
* ``ablation_mf_schedule`` — mobility-aware fetching's pr schedule
  (constant / linear / exponential) against plain rarest-first;
* ``ablation_lihd`` — LIHD's α/β aggressiveness (Figure 8(c));
* ``ablation_rr_vs_tracker`` — role reversal vs a default client that
  announces more often (Figure 9(c));
* ``ablation_sack`` — NewReno vs SACK-lite loss recovery on the wireless
  leg (not in the paper: how much of Figure 2's pain would selective
  acknowledgments absorb?).

They are registered scenarios like the figures (cached, parallel,
``run NAME --check``); their names do not start with ``fig``, so
``ALL_ORDER`` of the CLI stays the paper's figures.
"""

from __future__ import annotations

from ..analysis import Series, sweep
from ..media import average_curves
from ..runner import Scenario, Verdict, collect, scenario
from ..tcp import TCPConfig
from ..wp2p import (
    MobilityAwareSelector,
    WP2PClient,
    exponential_progress_schedule,
    linear_progress_schedule,
)
from .base import BulkSender, WirelessPairTopology
from .fig4_mobility import playability_run
from .fig8_wp2p import _fig8a_run, _fig8c_run
from .fig9_wp2p import _fig9c_run


@scenario
class AblationAmGamma(Scenario):
    """wP2P throughput at several AM γ thresholds, Figure 8(a) at BER 1.5e-5."""

    name = "ablation_am_gamma"
    description = "Ablation: AM's ACK-decoupling threshold γ (Figure 8(a) setup)"
    defaults = {
        "gammas": [2920, 8760, 17_520],
        "runs": 4,
        "duration": 45.0,
        "base_seed": 4000,
    }

    figure = "Ablation: AM γ"
    title = "ACK-decoupling threshold sensitivity (BER 1.5e-5)"
    x_label = "γ (bytes; 2/6/12 MSS)"
    y_label = "wP2P throughput (KB/s)"
    paper_expectation = "the paper picks γ=6 MSS (~9 KB) per [10]"

    def grid(self, p):
        return [(gamma,) for gamma in p["gammas"]]

    def run_cell(self, key, seed, p):
        _, wp2p_rate = _fig8a_run(seed, 1.5e-5, p["duration"], am_gamma_bytes=key[0])
        return wp2p_rate / 1000.0

    def series(self, p, values):
        gammas = p["gammas"]
        return [sweep("wP2P", gammas, (collect(values, (g,)) for g in gammas),
                      spread=False)]

    def check(self, run):
        ys = run.result.series[0].y
        return [Verdict("wp2p_moves_data_at_every_gamma", all(y > 0 for y in ys),
                        {"throughput": ys})]


#: pr schedules, in series order; "rarest-only" is the default client's.
MF_SCHEDULES = {
    "constant 0.2": lambda ctx: 0.2,
    "linear (paper eval)": linear_progress_schedule,
    "exponential p0=0.2": exponential_progress_schedule(0.2),
    "rarest-only (default)": lambda ctx: 1.0,
}


@scenario
class AblationMfSchedule(Scenario):
    """Playability under different mobility-aware fetching pr schedules."""

    name = "ablation_mf_schedule"
    description = "Ablation: mobility-aware fetching's pr schedule (playability)"
    defaults = {
        "runs": 5,
        "num_pieces": 40,
        "grid": [0.0, 25.0, 50.0, 75.0, 100.0],
        "base_seed": 4100,
    }

    figure = "Ablation: MF pr schedule"
    title = "Playability under different altruism schedules"
    x_label = "Downloaded percentage (%)"
    y_label = "Playable percentage (%)"
    paper_expectation = (
        "more sequential bias -> more playable mid-download; the linear "
        "schedule is what the paper evaluates"
    )

    def grid(self, p):
        return [(label,) for label in MF_SCHEDULES]

    def run_cell(self, key, seed, p):
        curve = playability_run(
            seed, p["num_pieces"],
            selector=MobilityAwareSelector(MF_SCHEDULES[key[0]]),
            client_factory=WP2PClient,
        )
        return [[d, play] for d, play in curve]

    def series(self, p, values):
        series = []
        for label in MF_SCHEDULES:
            avg = average_curves(collect(values, (label,)), p["grid"])
            series.append(Series(label, [g for g, _ in avg], [y for _, y in avg]))
        return series

    def check(self, run):
        constant = run.result.get("constant 0.2").y_at(50.0)
        rarest = run.result.get("rarest-only (default)").y_at(50.0)
        return [Verdict("sequential_bias_not_less_playable_mid_download",
                        constant >= rarest,
                        {"constant_at_50": constant, "rarest_at_50": rarest})]


#: (α, β) in bytes/s and their axis labels; α = β = 10 KB/s is the paper's.
LIHD_PAIRS = [(5_120.0, 5_120.0), (10_240.0, 10_240.0), (20_480.0, 20_480.0),
              (10_240.0, 30_720.0)]
LIHD_LABELS = ["a=b=5K", "a=b=10K (paper)", "a=b=20K", "a=10K b=30K"]


@scenario
class AblationLihd(Scenario):
    """Download rate for several LIHD (α, β) pairs, Figure 8(c) at 100 KB/s."""

    name = "ablation_lihd"
    description = "Ablation: LIHD α/β aggressiveness (Figure 8(c) setup, 100 KB/s)"
    defaults = {"runs": 2, "duration": 50.0, "base_seed": 4200}

    figure = "Ablation: LIHD α/β"
    title = "LIHD aggressiveness at 100 KB/s channel"
    x_label = "(α, β) setting"
    y_label = "Download throughput (KB/s)"
    notes = "x axis: " + ", ".join(LIHD_LABELS)
    paper_expectation = "α = β = 10 KB/s is the paper's Figure 8(c) setting"

    def grid(self, p):
        return LIHD_PAIRS

    def run_cell(self, key, seed, p):
        alpha, beta = key
        return _fig8c_run(seed, 100_000.0, use_lihd=True, duration=p["duration"],
                          lihd_alpha=alpha, lihd_beta=beta) / 1000.0

    def series(self, p, values):
        return [sweep("wP2P", range(len(LIHD_PAIRS)),
                      (collect(values, pair) for pair in LIHD_PAIRS), spread=False)]

    def check(self, run):
        ys = run.result.series[0].y
        return [Verdict("wp2p_moves_data_at_every_setting", all(y > 0 for y in ys),
                        {"throughput": ys})]


@scenario
class AblationRrVsTracker(Scenario):
    """Can a default client approximate role reversal by announcing more
    often?  Sweeps the default client's tracker interval against wP2P's
    role reversal at the paper's 2-minute mobility rate (60 s, 2x scaled)."""

    name = "ablation_rr_vs_tracker"
    description = "Ablation: role reversal vs shorter tracker intervals (Figure 9(c) setup)"
    defaults = {
        "tracker_intervals": [30.0, 60.0, 120.0],
        "runs": 1,
        "duration": 240.0,
        "base_seed": 4300,
    }

    figure = "Ablation: RR vs tracker refresh"
    title = "Role reversal vs shorter tracker intervals (default client)"
    x_label = "Tracker interval (s)"
    y_label = "Mobile-seed upload throughput (KB/s)"
    paper_expectation = (
        "faster tracker refresh helps the default client but cannot match "
        "immediate client-side re-initiation"
    )

    def grid(self, p):
        return [("default", t) for t in p["tracker_intervals"]] + [("wp2p",)]

    def run_cell(self, key, seed, p):
        if key[0] == "wp2p":
            return _fig9c_run(seed, 60.0, wp2p=True, duration=p["duration"])
        return _fig9c_run(seed, 60.0, wp2p=False, duration=p["duration"],
                          tracker_interval=key[1])

    def series(self, p, values):
        xs = p["tracker_intervals"]
        wp2p = collect(values, ("wp2p",))
        return [
            sweep("Default P2P", xs, (collect(values, ("default", x)) for x in xs),
                  scale=1000.0, spread=False),
            sweep("wP2P role reversal", xs, [wp2p] * len(xs), scale=1000.0, spread=False),
        ]

    def check(self, run):
        wp2p = run.result.get("wP2P role reversal").y[0]
        default_best = max(run.result.get("Default P2P").y)
        return [Verdict("role_reversal_competitive_with_any_refresh",
                        wp2p > default_best * 0.9,
                        {"wp2p": wp2p, "default_best": default_best})]


def _sack_transfer(sack: bool, ber: float, seed: int, duration: float) -> float:
    """Raw-TCP download rate (KB/s) with the given recovery flavour."""
    topo = WirelessPairTopology(
        seed=seed, rate=60_000.0, ber=ber, tcp_config=TCPConfig(sack=sack),
    )
    conns: list = []
    topo.mobile_stack.listen(6881, conns.append)
    conn = topo.fixed_stack.connect(topo.mobile.ip, 6881)
    BulkSender(topo.sim, conn).start()
    topo.sim.run(until=2.0)
    base = conns[0].stats.payload_bytes_delivered if conns else 0
    topo.sim.run(until=2.0 + duration)
    delivered = conns[0].stats.payload_bytes_delivered - base if conns else 0
    return delivered / duration / 1000.0


@scenario
class AblationSack(Scenario):
    """NewReno vs SACK-lite download throughput over BER (Figure 2 link)."""

    name = "ablation_sack"
    description = "Ablation: NewReno vs SACK-lite loss recovery on the wireless leg"
    defaults = {
        "bers": [1e-6, 5e-6, 1e-5, 1.5e-5],
        "runs": 4,
        "duration": 40.0,
        "base_seed": 4400,
    }

    figure = "Ablation: SACK"
    title = "NewReno vs SACK-lite under random wireless losses"
    x_label = "BER"
    y_label = "Download throughput (KB/s)"
    paper_expectation = (
        "not in the paper; selective acknowledgments recover multi-loss "
        "windows without go-back-N, helping most at high BER"
    )
    reports = {"runs": "runs", "duration_s": "duration"}

    def grid(self, p):
        return [(flavour, ber) for ber in p["bers"] for flavour in ("newreno", "sack")]

    def run_cell(self, key, seed, p):
        flavour, ber = key
        return _sack_transfer(flavour == "sack", ber, seed, p["duration"])

    def series(self, p, values):
        bers = p["bers"]
        return [
            sweep(label, bers, (collect(values, (flavour, b)) for b in bers), spread=False)
            for flavour, label in (("newreno", "NewReno"), ("sack", "SACK-lite"))
        ]

    def check(self, run):
        reno = run.result.get("NewReno").y
        sack = run.result.get("SACK-lite").y
        ends = {"newreno": [reno[0], reno[-1]], "sack": [sack[0], sack[-1]]}
        return [
            Verdict("sack_competitive_at_highest_ber", sack[-1] >= reno[-1] * 0.85, ends),
            Verdict("both_decline_with_ber", reno[-1] < reno[0] and sack[-1] < sack[0], ends),
        ]
