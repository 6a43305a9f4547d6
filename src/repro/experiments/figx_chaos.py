"""Chaos sweep — graceful degradation under scheduled faults (``figx_chaos``).

Not a figure from the paper: a robustness experiment the paper's story
implies.  A small swarm (wired seed, wired leeches, one mobile wireless
leech) downloads while a :mod:`repro.chaos` preset injects faults —
churn among the fixed peers, a tracker outage, wireless degradation,
and forced IP-handoff storms against the mobile host — at increasing
intensity.  Two variants run on the same seeds:

* **default** — a deployed-client baseline: every IP change tears the
  task down, waits ``task_restart_delay``, and rejoins under a fresh
  peer ID (forfeiting all tit-for-tat credit, §3.4);
* **wp2p** — identity retention + role reversal, the wP2P mechanisms
  that make exactly these disruptions cheap (§5.2.4).

Expectation: the mobile leech's completion time rises (goodput falls)
monotonically with chaos intensity for both variants, and wP2P
outperforms the baseline wherever the intensity is nonzero — graceful
versus brittle degradation of the same protocol stack.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis import Series, sweep
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..chaos import preset_schedule
from ..runner import Scenario, collect, scenario
from ..wp2p import WP2PClient, rr_only_config

CHAOS_INTENSITIES: Sequence[float] = (0.0, 1.0, 2.0)


def chaos_run(
    seed: int,
    preset: str,
    intensity: float,
    duration: float,
    wp2p: bool,
    horizon: float = 210.0,
    file_size: int = 2048 * 1024,
    piece_length: int = 32_768,
) -> Dict[str, float]:
    """One cell: mobile-leech completion time + goodput under one preset.

    ``horizon`` is the window the preset lays its faults over; it is
    deliberately shorter than ``duration`` (the completion timeout) so a
    faulted run still has quiet time to recover and finish rather than
    being censored at the deadline.
    """
    sc = SwarmScenario(
        seed=seed,
        file_size=file_size,
        piece_length=piece_length,
        tracker_interval=60.0,
    )
    sc.add_wired_peer("seed0", complete=True, down_rate=1_000_000, up_rate=400_000)
    for i in range(2):
        sc.add_wired_peer(f"f{i}", down_rate=500_000, up_rate=96_000)
    if wp2p:
        mobile = sc.add_wireless_peer(
            "mob0", rate=30_000,
            config=rr_only_config(), client_factory=WP2PClient,
        )
    else:
        mobile = sc.add_wireless_peer(
            "mob0", rate=30_000,
            config=ClientConfig(task_restart_delay=15.0),
        )
    sc.add_mobility(mobile, interval=90.0, downtime=1.0)
    # An ambient runner-level preset (--chaos) takes precedence; the
    # sweep's own schedule applies otherwise.
    if sc.chaos is None:
        sc.add_chaos(preset_schedule(preset, intensity, horizon=horizon))
    sc.start_all()
    sc.run_until_complete(names=["mob0"], timeout=duration)
    client = mobile.client
    completion = (
        client.completion_time if client.completion_time is not None else duration
    )
    return {
        "completion": completion,
        "goodput": client.manager.bytes_completed / max(completion, 1e-9),
        "faults": float(sc.chaos.faults_injected if sc.chaos is not None else 0),
    }


@scenario
class FigXChaos(Scenario):
    """Completion time vs chaos intensity, wP2P against the default client."""

    name = "figx_chaos"
    description = (
        "Chaos sweep: wP2P vs default completion time/goodput as scheduled "
        "fault intensity rises"
    )
    defaults = {
        "preset": "mixed",
        "intensities": list(CHAOS_INTENSITIES),
        "runs": 2,
        "duration": 420.0,
        "horizon": 210.0,
        "file_size_kib": 2048,
        "piece_length": 32_768,
        "base_seed": 1100,
    }

    figure = "Chaos sweep"
    title = "Mobile-leech completion time vs fault intensity ({preset} preset)"
    x_label = "Chaos intensity"
    y_label = "Completion time (s)"
    paper_expectation = (
        "completion time degrades monotonically with fault intensity "
        "for both variants; wP2P (identity retention + role reversal) "
        "stays ahead of the default client at every nonzero intensity"
    )
    reports = {"preset": "preset", "intensities": "intensities", "runs": "runs",
               "duration_s": "duration", "file_size_kib": "file_size_kib"}

    def grid(self, p):
        return [(v, i) for v in ("default", "wp2p") for i in p["intensities"]]

    def run_cell(self, key, seed, p):
        variant, intensity = key
        return chaos_run(
            seed,
            preset=p["preset"],
            intensity=intensity,
            duration=p["duration"],
            wp2p=(variant == "wp2p"),
            horizon=p["horizon"],
            file_size=p["file_size_kib"] * 1024,
            piece_length=p["piece_length"],
        )

    def assemble(self, p, values, failures):
        def curve(variant: str, field: str, label: str = "") -> Series:
            intensities = p["intensities"]
            return sweep(label, intensities,
                         (collect(values, (variant, i)) for i in intensities),
                         field=field, spread=False)

        goodput = " | ".join(
            f"{variant}: " + ", ".join(
                f"{g:.0f}" for g in curve(variant, "goodput").y)
            for variant in ("default", "wp2p")
        )
        return self.result(
            p,
            [curve("default", "completion", "Default P2P"),
             curve("wp2p", "completion", "wP2P")],
            {"mean_faults": {v: curve(v, "faults").y for v in ("default", "wp2p")}},
            notes="goodput (B/s) " + goodput,
        )
