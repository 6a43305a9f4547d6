"""Figure 4 — server mobility and rarest-first fetching (§3.5–3.6).

* ``fig4a``: throughput of a fixed peer served by three (mobile) seeds, as
  the seeds' IP-change interval shrinks.  Two series: only one seed mobile
  vs all three mobile.  Faster mobility → lower throughput; all-mobile is
  strictly worse than one-mobile.
* ``fig4bc``: playable percentage vs downloaded percentage under
  rarest-first fetching for a 20-piece (5 MB) and a 400-piece (100 MB)
  file.  Piece counts match the paper exactly (playability is a function
  of piece count, not bytes); byte sizes are scaled.

Both figures are registered scenarios (``fig4a``, ``fig4bc``); the
functions of the same name remain as serial front doors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis import ExperimentResult, Series, summarize
from ..bittorrent import ClientConfig, RarestFirstSelector
from ..bittorrent.selection import PieceSelector
from ..bittorrent.swarm import SwarmScenario
from ..media import average_curves, playability_curve
from ..runner import Scenario, collect, scenario

MOBILITY_INTERVALS: Sequence[Optional[float]] = (None, 120.0, 90.0, 60.0, 30.0)
MOBILITY_LABELS = ("No mobility", "Every 2 min", "Every 1.5 min", "Every 1 min", "Every 0.5 min")


def _fig4a_run(
    seed: int,
    interval: Optional[float],
    mobile_seeds: int,
    duration: float,
    tracker_interval: float,
) -> float:
    """One run: the fixed peer's download throughput (bytes/s)."""
    sc = SwarmScenario(
        seed=seed,
        file_size=256 * 1024 * 1024,  # never completes within the run
        piece_length=131_072,
        tracker_interval=tracker_interval,
    )
    # task_restart_delay models what a deployed client actually does after
    # an address change: tear the task down, re-initiate it, re-check the
    # partial file on disk, and re-announce — tens of seconds in practice.
    seed_cfg = ClientConfig(unchoke_slots=3, choke_interval=5.0, task_restart_delay=15.0)
    fixed_cfg = ClientConfig(unchoke_slots=3, choke_interval=5.0)
    handles = []
    for i in range(3):
        handle = sc.add_wireless_peer(
            f"s{i}", complete=True, rate=100_000, config=seed_cfg
        )
        handles.append(handle)
    fixed = sc.add_wired_peer("fixed", down_rate=500_000, up_rate=48_000, config=fixed_cfg)
    if interval is not None:
        for handle in handles[:mobile_seeds]:
            sc.add_mobility(handle, interval=interval, downtime=2.0, jitter=interval * 0.2)
    sc.start_all()
    sc.run(until=duration)
    return fixed.client.downloaded.total / duration


@scenario
class Fig4A(Scenario):
    """Fixed-peer throughput vs server (mobile seed) mobility rate."""

    name = "fig4a"
    description = "Figure 4(a): server-side mobility vs fixed-peer throughput"
    defaults = {
        "intervals": list(MOBILITY_INTERVALS),
        "runs": 2,
        "duration": 300.0,
        "tracker_interval": 60.0,
        "base_seed": 600,
    }

    def cells(self, p):
        for interval in p["intervals"]:
            for r in range(p["runs"]):
                # The all-mobile sweep historically runs on a disjoint
                # seed block (base_seed + 50) so the two series see
                # independent environment noise.
                yield ("one", interval), p["base_seed"] + r
                yield ("all", interval), p["base_seed"] + 50 + r

    def run_cell(self, key, seed, p):
        series, interval = key
        return _fig4a_run(
            seed, interval, 1 if series == "one" else 3,
            p["duration"], p["tracker_interval"],
        )

    def assemble(self, p, values, failures):
        def sweep(series: str, label: str) -> Series:
            ys: List[float] = []
            errs: List[float] = []
            for interval in p["intervals"]:
                vals = collect(values, (series, interval))
                ys.append(sum(vals) / len(vals) / 1000.0)
                errs.append(summarize([v / 1000.0 for v in vals]).ci95)
            return Series(label, list(range(len(p["intervals"]))), ys, y_err=errs)

        return ExperimentResult(
            figure="Figure 4(a)",
            title="Impact of server-side mobility on a fixed peer",
            x_label="Mobility rate",
            y_label="Throughput (KB/s)",
            series=[
                sweep("one", "One peer is mobile"),
                sweep("all", "All peers are mobile"),
            ],
            paper_expectation=(
                "throughput falls as the IP-change interval shrinks; the "
                "degradation is amplified when all corresponding peers are mobile"
            ),
            notes="x axis: " + ", ".join(MOBILITY_LABELS),
            parameters={
                "intervals_s": list(p["intervals"]),
                "runs": p["runs"],
                "duration_s": p["duration"],
            },
        )


def playability_run(
    seed: int,
    num_pieces: int,
    selector: Optional[PieceSelector] = None,
    piece_length: int = 16_384,
    client_factory=None,
    timeout: float = 1200.0,
) -> List[tuple]:
    """One full download; returns its (downloaded %, playable %) curve.

    The downloader fetches from three seeds plus two staggered leeches, so
    availability varies and rarest-first has real rarity signal to follow
    (as in the paper's live-swarm measurements).
    """
    from ..bittorrent.swarm import SwarmScenario

    sc = SwarmScenario(
        seed=seed,
        file_size=num_pieces * piece_length,
        piece_length=piece_length,
    )
    for i in range(3):
        sc.add_wired_peer(f"s{i}", complete=True, up_rate=80_000)
    for i in range(2):
        sc.add_wired_peer(f"l{i}", up_rate=60_000)
    kwargs = {}
    if client_factory is not None:
        kwargs["client_factory"] = client_factory
    x = sc.add_wireless_peer(
        "x", rate=200_000, selector=selector, **kwargs
    )
    sc.start_all()
    sc.run_until_complete(["x"], timeout=timeout)
    return playability_curve(sc.torrent, x.client.manager.completion_order)


GRID = [float(g) for g in range(0, 101, 10)]


@scenario
class Fig4BC(Scenario):
    """Playable % vs downloaded % under rarest-first fetching.

    ``num_pieces=20`` reproduces Figure 4(b) (5 MB at the 256 KB default
    piece length); ``num_pieces=400`` reproduces Figure 4(c) (100 MB).
    """

    name = "fig4bc"
    description = (
        "Figure 4(b, c): rarest-first playability for 20- / 400-piece files"
    )
    defaults = {
        "num_pieces": 20,
        "runs": 10,
        "base_seed": 700,
        "grid": GRID,
    }

    def cells(self, p):
        for r in range(p["runs"]):
            yield ("curve",), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        curve = playability_run(
            seed, p["num_pieces"], selector=RarestFirstSelector()
        )
        return [[d, play] for d, play in curve]

    def assemble(self, p, values, failures):
        num_pieces = p["num_pieces"]
        curves = [
            [(d, play) for d, play in curve]
            for curve in collect(values, ("curve",))
        ]
        averaged = average_curves(curves, p["grid"])
        label = "5 MB file (20 pieces)" if num_pieces == 20 else f"{num_pieces} pieces"
        if num_pieces == 400:
            label = "100 MB file (400 pieces)"
        figure = "Figure 4(b)" if num_pieces == 20 else "Figure 4(c)"
        return ExperimentResult(
            figure=figure,
            title="Playable fraction under rarest-first fetching",
            x_label="Downloaded percentage (%)",
            y_label="Playable percentage (%)",
            series=[Series(label, [g for g, _ in averaged], [play for _, play in averaged])],
            paper_expectation=(
                "playability stays near zero until most of the file is "
                "downloaded; worse for more pieces (100 MB: >90% downloaded "
                "needed to play the first 2%)"
            ),
            parameters={"num_pieces": num_pieces, "runs": p["runs"]},
        )
