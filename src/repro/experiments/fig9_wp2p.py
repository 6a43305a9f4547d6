"""Figure 9 — wP2P evaluation: mobility-aware fetching and role reversal
(§5.2.3–5.2.4).

* ``fig9ab``: playable %% vs downloaded %% — wP2P's mobility-aware
  fetching (pr = downloaded fraction) against default rarest-first, for
  the paper's 20-piece (5 MB) and 400-piece (100 MB) files.
* ``fig9c``: uploading throughput of two mobile seeds as their IP-change
  interval shrinks — role reversal (immediate re-initiation toward
  remembered peers) against the default client's task re-initiation.

Both figures are registered scenarios (``fig9ab``, ``fig9c``); the
functions of the same name remain as serial front doors.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis import Series, sweep
from ..bittorrent import ClientConfig, RarestFirstSelector
from ..bittorrent.swarm import SwarmScenario
from ..media import average_curves
from ..runner import Scenario, Verdict, collect, scenario
from ..summation import left_sum
from ..wp2p import WP2PClient, rr_only_config
from .fig4_mobility import GRID, playability_run


@scenario
class Fig9AB(Scenario):
    """Mobility-aware fetching vs rarest-first playability (Figure 9(a, b)).

    ``num_pieces=20`` is the paper's 5 MB file, ``num_pieces=400`` the
    100 MB file; pr equals the downloaded fraction, as in the paper's
    evaluation.  The wP2P downloader runs the default
    :class:`~repro.wp2p.WP2PConfig`: mobility-aware fetching with every
    other wP2P component on.
    """

    name = "fig9ab"
    description = (
        "Figure 9(a, b): mobility-aware fetching vs rarest-first playability"
    )
    defaults = {
        "num_pieces": 20,
        "runs": 10,
        "base_seed": 950,
        "grid": GRID,
    }

    title = "Mobility-aware fetching playability ({num_pieces} pieces)"
    x_label = "Downloaded percentage (%)"
    y_label = "Playable percentage (%)"
    paper_expectation = (
        "wP2P keeps a large in-sequence playable prefix throughout "
        "(e.g. ~30% playable at 50% downloaded for 5 MB vs ~5% default)"
    )
    reports = {"num_pieces": "num_pieces", "runs": "runs"}

    def grid(self, p):
        return [("default",), ("wp2p",)]

    def run_cell(self, key, seed, p):
        if key[0] == "wp2p":
            curve = playability_run(seed, p["num_pieces"], client_factory=WP2PClient)
        else:
            curve = playability_run(
                seed, p["num_pieces"], selector=RarestFirstSelector()
            )
        return [[d, play] for d, play in curve]

    def assemble(self, p, values, failures):
        series = []
        for variant, label in (("default", "Default P2P"), ("wp2p", "wP2P")):
            averaged = average_curves(collect(values, (variant,)), p["grid"])
            series.append(Series(label, [g for g, _ in averaged], [y for _, y in averaged]))
        figure = "Figure 9(a)" if p["num_pieces"] == 20 else "Figure 9(b)"
        return self.result(p, series, figure=figure)

    def check(self, run):
        d, w = run.result.get("Default P2P"), run.result.get("wP2P")
        at_half = {"default_at_50": d.y_at(50.0), "wp2p_at_50": w.y_at(50.0)}
        verdicts = [Verdict("wp2p_far_more_playable_at_half",
                            w.y_at(50.0) >= d.y_at(50.0) + 10.0, at_half)]
        num_pieces = run.spec.params["num_pieces"]
        if num_pieces == 20:
            verdicts.append(Verdict(
                "wp2p_at_least_as_playable_everywhere",
                all(w.y_at(float(x)) >= d.y_at(float(x)) - 5.0 for x in range(10, 100, 10)),
                {"default": d.y, "wp2p": w.y},
            ))
        elif num_pieces == 400:
            verdicts.append(Verdict("rarest_first_unplayable_at_half",
                                    d.y_at(50.0) <= 10.0, at_half))
        return verdicts


ROLE_REVERSAL_INTERVALS: Sequence[float] = (180.0, 120.0, 60.0)
ROLE_REVERSAL_LABELS = ("Every 6 min", "Every 4 min", "Every 2 min")
"""Paper intervals scaled 2x down; the 6:4:2 ratio is preserved."""


def _fig9c_run(
    seed: int,
    interval: float,
    wp2p: bool,
    duration: float,
    tracker_interval: float = 60.0,
) -> float:
    """One run: aggregate upload throughput of the two mobile seeds.

    ``tracker_interval`` is the announce period (the role reversal vs
    tracker refresh ablation shortens it for the default client).
    """
    sc = SwarmScenario(
        seed=seed,
        file_size=256 * 1024 * 1024,
        piece_length=131_072,
        tracker_interval=tracker_interval,
    )
    leech_cfg = ClientConfig(unchoke_slots=3, choke_interval=5.0)
    for i in range(4):
        sc.add_wired_peer(f"f{i}", down_rate=500_000, up_rate=48_000, config=leech_cfg)
    seeds = []
    for i in range(2):
        if wp2p:
            cfg = rr_only_config(unchoke_slots=3, choke_interval=5.0)
            handle = sc.add_wireless_peer(
                f"m{i}", complete=True, rate=150_000, config=cfg,
                client_factory=WP2PClient,
            )
        else:
            cfg = ClientConfig(
                unchoke_slots=3, choke_interval=5.0, task_restart_delay=15.0
            )
            handle = sc.add_wireless_peer(
                f"m{i}", complete=True, rate=150_000, config=cfg
            )
        seeds.append(handle)
        sc.add_mobility(handle, interval=interval, downtime=2.0, jitter=interval * 0.2)
    sc.start_all()
    sc.run(until=duration)
    uploaded = left_sum(h.client.uploaded.total for h in seeds)
    return uploaded / duration / 2.0  # per-seed average


@scenario
class Fig9C(Scenario):
    """Role reversal: mobile-seed upload throughput vs mobility rate."""

    name = "fig9c"
    description = "Figure 9(c): role reversal vs task re-initiation under mobility"
    defaults = {
        "intervals": list(ROLE_REVERSAL_INTERVALS),
        "runs": 2,
        "duration": 360.0,
        "base_seed": 980,
    }

    figure = "Figure 9(c)"
    title = "Role reversal: mobile seeds' upload throughput under mobility"
    x_label = "Mobility rate"
    y_label = "Uploading throughput (KB/s)"
    paper_expectation = (
        "upload throughput falls with faster mobility for both; wP2P "
        "stays higher, with the advantage growing as disruptions become "
        "more frequent (up to ~50%)"
    )
    notes = "x axis: " + ", ".join(ROLE_REVERSAL_LABELS) + " (2x time-scaled)"
    reports = {"intervals_s": "intervals", "runs": "runs", "duration_s": "duration"}

    def grid(self, p):
        return [(variant, i) for variant in ("default", "wp2p") for i in p["intervals"]]

    def run_cell(self, key, seed, p):
        variant, interval = key
        return _fig9c_run(seed, interval, wp2p=(variant == "wp2p"), duration=p["duration"])

    def series(self, p, values):
        return [
            sweep(label, range(len(p["intervals"])),
                  (collect(values, (variant, i)) for i in p["intervals"]),
                  scale=1000.0, spread=False)
            for variant, label in (("default", "Default P2P"), ("wp2p", "wP2P"))
        ]

    def check(self, run):
        d, w = run.result.get("Default P2P").y, run.result.get("wP2P").y
        gain_slow = w[0] / max(d[0], 1e-9)
        gain_fast = w[-1] / max(d[-1], 1e-9)
        return [
            Verdict("wp2p_ahead_at_every_rate", all(wy >= dy for dy, wy in zip(d, w)),
                    {"default": d, "wp2p": w}),
            Verdict("advantage_grows_with_mobility", gain_fast > gain_slow,
                    {"gain_slow": gain_slow, "gain_fast": gain_fast}),
            Verdict("default_degrades_with_mobility", d[-1] < d[0],
                    {"default": [d[0], d[-1]]}),
        ]
