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

from typing import List, Sequence

from ..analysis import ExperimentResult, Series
from ..bittorrent import ClientConfig, RarestFirstSelector
from ..bittorrent.swarm import SwarmScenario
from ..media import average_curves
from ..runner import Scenario, collect, scenario
from ..wp2p import WP2PClient, WP2PConfig
from .fig4_mobility import GRID, playability_run


def mf_only_config(**overrides) -> WP2PConfig:
    """wP2P with only mobility-aware fetching active (isolates §5.2.3)."""
    cfg = WP2PConfig(
        am_enabled=False,
        mobility_aware_fetching=True,
        identity_retention=False,
        role_reversal=False,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def rr_only_config(**overrides) -> WP2PConfig:
    """wP2P with role reversal + identity retention (isolates §5.2.4)."""
    cfg = WP2PConfig(
        am_enabled=False,
        mobility_aware_fetching=False,
        identity_retention=True,
        role_reversal=True,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _mf_factory(sim, host, torrent, **kwargs):
    kwargs.setdefault("config", mf_only_config())
    return WP2PClient(sim, host, torrent, **kwargs)


@scenario
class Fig9AB(Scenario):
    """Mobility-aware fetching vs rarest-first playability (Figure 9(a, b)).

    ``num_pieces=20`` is the paper's 5 MB file, ``num_pieces=400`` the
    100 MB file; pr equals the downloaded fraction, as in the paper's
    evaluation.
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

    def cells(self, p):
        for variant in ("default", "wp2p"):
            for r in range(p["runs"]):
                yield (variant,), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        if key[0] == "wp2p":
            curve = playability_run(seed, p["num_pieces"], client_factory=_mf_factory)
        else:
            curve = playability_run(
                seed, p["num_pieces"], selector=RarestFirstSelector()
            )
        return [[d, play] for d, play in curve]

    def assemble(self, p, values, failures):
        num_pieces = p["num_pieces"]

        def averaged(variant: str):
            curves = [
                [(d, play) for d, play in curve]
                for curve in collect(values, (variant,))
            ]
            return average_curves(curves, p["grid"])

        default_avg = averaged("default")
        wp2p_avg = averaged("wp2p")
        figure = "Figure 9(a)" if num_pieces == 20 else "Figure 9(b)"
        return ExperimentResult(
            figure=figure,
            title=f"Mobility-aware fetching playability ({num_pieces} pieces)",
            x_label="Downloaded percentage (%)",
            y_label="Playable percentage (%)",
            series=[
                Series("Default P2P", [g for g, _ in default_avg], [p for _, p in default_avg]),
                Series("wP2P", [g for g, _ in wp2p_avg], [p for _, p in wp2p_avg]),
            ],
            paper_expectation=(
                "wP2P keeps a large in-sequence playable prefix throughout "
                "(e.g. ~30% playable at 50% downloaded for 5 MB vs ~5% default)"
            ),
            parameters={"num_pieces": num_pieces, "runs": p["runs"]},
        )


ROLE_REVERSAL_INTERVALS: Sequence[float] = (180.0, 120.0, 60.0)
ROLE_REVERSAL_LABELS = ("Every 6 min", "Every 4 min", "Every 2 min")
"""Paper intervals scaled 2x down; the 6:4:2 ratio is preserved."""


def _fig9c_run(
    seed: int,
    interval: float,
    wp2p: bool,
    duration: float,
) -> float:
    """One run: aggregate upload throughput of the two mobile seeds."""
    sc = SwarmScenario(
        seed=seed,
        file_size=256 * 1024 * 1024,
        piece_length=131_072,
        tracker_interval=60.0,
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
    uploaded = sum(h.client.uploaded.total for h in seeds)
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

    def cells(self, p):
        for variant in ("default", "wp2p"):
            for interval in p["intervals"]:
                for r in range(p["runs"]):
                    yield (variant, interval), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        variant, interval = key
        return _fig9c_run(seed, interval, wp2p=(variant == "wp2p"), duration=p["duration"])

    def assemble(self, p, values, failures):
        runs = p["runs"]

        def sweep(variant: str, label: str) -> Series:
            ys: List[float] = []
            for interval in p["intervals"]:
                vals = collect(values, (variant, interval))
                ys.append(sum(vals) / runs / 1000.0)
            return Series(label, list(range(len(p["intervals"]))), ys)

        return ExperimentResult(
            figure="Figure 9(c)",
            title="Role reversal: mobile seeds' upload throughput under mobility",
            x_label="Mobility rate",
            y_label="Uploading throughput (KB/s)",
            series=[sweep("default", "Default P2P"), sweep("wp2p", "wP2P")],
            paper_expectation=(
                "upload throughput falls with faster mobility for both; wP2P "
                "stays higher, with the advantage growing as disruptions become "
                "more frequent (up to ~50%)"
            ),
            notes="x axis: " + ", ".join(ROLE_REVERSAL_LABELS) + " (2x time-scaled)",
            parameters={
                "intervals_s": list(p["intervals"]),
                "runs": runs,
                "duration_s": p["duration"],
            },
        )
