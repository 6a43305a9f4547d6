"""Scale sweep — swarm size × mobile-host fraction (``figx_scale``).

Not a figure from the paper: the paper's mobile-vs-wired findings
(§3.4–§5.2) extended to realistic swarm sizes on the
:mod:`repro.scale` mean-field fluid backend.  A swarm of ``N`` peers —
a fixed block of wired seeds plus wired leechers and a ``mobile_fraction``
of mobile leechers — downloads one file; the mobile leechers either run
the deployed-client **default** policy (every IP change tears the task
down and rejoins under a fresh peer ID) or **wP2P** (identity retention
+ LIHD upload throttling on the shared wireless cell).

The scenario supports both backends: ``fluid`` (the default) integrates
populations and handles 10^2–10^6 peers in milliseconds per cell;
``packet`` builds the real discrete-event swarm and is capped at small
N, where it serves as the cross-validation anchor
(:mod:`repro.scale.validate` runs the systematic comparison).

Expectation: completion time degrades as the mobile-host fraction
rises, wP2P stays ahead of the default client wherever mobile hosts are
present, and both backends agree at small N.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import chaos as chaos_mod
from ..analysis import ExperimentResult, Series
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..chaos import preset_schedule
from ..runner import Scenario, collect, scenario
from ..scale import FluidParams, FluidSwarm, PeerClass
from ..wp2p import WP2PClient
from .fig9_wp2p import rr_only_config

SWARM_SIZES: Sequence[int] = (100, 1_000, 10_000, 100_000)
MOBILE_FRACTIONS: Sequence[float] = (0.0, 0.2, 0.5)

#: The packet backend builds one real host per peer; beyond this the
#: event-level simulator is the wrong tool (that is what fluid is for).
PACKET_SIZE_CAP = 64


def _fluid_classes(
    size: int,
    mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> List[PeerClass]:
    """The peer-class decomposition of one (size, fraction, variant) cell."""
    seeds = min(size - 1, int(p["seed_count"]))
    mobile = round((size - seeds) * mobile_fraction)
    wired = size - seeds - mobile
    classes = [
        PeerClass(
            "seeds", float(seeds), float(p["seed_up_rate"]), 1_000_000.0,
            seed=True,
        ),
    ]
    if wired > 0:
        classes.append(PeerClass(
            "wired", float(wired), float(p["wired_up_rate"]),
            float(p["wired_down_rate"]),
        ))
    if mobile > 0:
        classes.append(PeerClass(
            "mobile", float(mobile), float(p["mobile_up_rate"]),
            float(p["wireless_rate"]),
            mobile=True, wp2p=wp2p, wireless_shared=True,
            handoff_interval=float(p["handoff_interval"]),
            handoff_downtime=float(p["handoff_downtime"]),
            restart_delay=float(p["restart_delay"]),
            selection="inorder" if wp2p else "rarest",
        ))
    return classes


def fluid_cell(
    size: int,
    mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One fluid-backend cell: per-class completion/goodput + engine stats."""
    params = FluidParams(
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        classes=tuple(_fluid_classes(size, mobile_fraction, wp2p, p)),
        dt=float(p["dt"]),
        max_time=float(p["max_time"]),
    )
    # Mirror the packet path's ambient chaos: the runner's --chaos preset
    # maps onto fluid rate windows (churn, tracker outage, ...).
    schedule = None
    opts = chaos_mod.options()
    if opts is not None:
        schedule = preset_schedule(
            str(opts["preset"]), float(opts["intensity"]), float(opts["horizon"])
        )
    result = FluidSwarm(params, chaos=schedule).run()
    wired = result.classes.get("wired")
    mobile = result.classes.get("mobile")
    playable_mid = None
    if mobile is not None:
        # Playability surrogate at 50% downloaded (streaming readiness).
        playable_mid = next(
            play for down, play in mobile.playability if down >= 50.0
        )
    return {
        "completion": result.leecher_completion_time(),
        "wired_completion": wired.completion_time if wired else None,
        "mobile_completion": mobile.completion_time if mobile else None,
        "wired_goodput": wired.mean_goodput if wired else None,
        "mobile_goodput": mobile.mean_goodput if mobile else None,
        "playable_at_half": playable_mid,
        "steps": result.steps,
        "peak_swarm": result.peak_population,
    }


def packet_cell(
    seed: int,
    size: int,
    mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One packet-backend cell: the same topology as real hosts."""
    if size > PACKET_SIZE_CAP:
        raise ValueError(
            f"packet backend supports swarm_size <= {PACKET_SIZE_CAP} "
            f"(got {size}); use --backend fluid for large swarms"
        )
    seeds = min(size - 1, int(p["seed_count"]))
    mobile = round((size - seeds) * mobile_fraction)
    wired = size - seeds - mobile
    sc = SwarmScenario(
        seed=seed,
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        tracker_interval=60.0,
    )
    for i in range(seeds):
        sc.add_wired_peer(
            f"s{i}", complete=True,
            down_rate=1_000_000, up_rate=float(p["seed_up_rate"]),
        )
    for i in range(wired):
        sc.add_wired_peer(
            f"w{i}", down_rate=float(p["wired_down_rate"]),
            up_rate=float(p["wired_up_rate"]),
        )
    mobiles = []
    for i in range(mobile):
        if wp2p:
            handle = sc.add_wireless_peer(
                f"m{i}", rate=float(p["wireless_rate"]),
                config=rr_only_config(), client_factory=WP2PClient,
            )
        else:
            handle = sc.add_wireless_peer(
                f"m{i}", rate=float(p["wireless_rate"]),
                config=ClientConfig(task_restart_delay=float(p["restart_delay"])),
            )
        sc.add_mobility(
            handle, interval=float(p["handoff_interval"]),
            downtime=float(p["handoff_downtime"]),
        )
        mobiles.append(handle)
    sc.start_all()
    leechers = [n for n, h in sc.peers.items() if not h.client.complete]
    sc.run_until_complete(names=leechers, timeout=float(p["max_time"]))

    def _completion(names: List[str]) -> Optional[float]:
        times = [sc.peers[n].client.completion_time for n in names]
        if any(t is None for t in times):
            return None
        return max(times) if times else None

    def _goodput(names: List[str]) -> Optional[float]:
        rates = []
        for n in names:
            client = sc.peers[n].client
            if client.completion_time:
                rates.append(
                    client.manager.bytes_completed / client.completion_time
                )
        return sum(rates) / len(rates) if rates else None

    wired_names = [f"w{i}" for i in range(wired)]
    mobile_names = [f"m{i}" for i in range(mobile)]
    return {
        "completion": _completion(leechers),
        "wired_completion": _completion(wired_names),
        "mobile_completion": _completion(mobile_names),
        "wired_goodput": _goodput(wired_names),
        "mobile_goodput": _goodput(mobile_names),
        "playable_at_half": None,
        "steps": sc.sim.events_processed,
        "peak_swarm": float(size),
    }


@scenario
class FigXScale(Scenario):
    """Swarm size × mobile fraction sweep, default vs wP2P clients."""

    name = "figx_scale"
    description = (
        "Scale sweep: completion time vs swarm size and mobile-host "
        "fraction, default vs wP2P (fluid backend; packet at small N)"
    )
    backends = ("fluid", "packet")
    defaults = {
        "swarm_sizes": list(SWARM_SIZES),
        "mobile_fractions": list(MOBILE_FRACTIONS),
        "runs": 1,
        # A fixed seed block, not a fraction: larger swarms must
        # self-scale on leecher upload capacity, which is the effect the
        # sweep exists to show.
        "seed_count": 5,
        "seed_up_rate": 96_000.0,
        "wired_up_rate": 48_000.0,
        "wired_down_rate": 500_000.0,
        "mobile_up_rate": 24_000.0,
        "wireless_rate": 100_000.0,
        "handoff_interval": 90.0,
        "handoff_downtime": 1.0,
        "restart_delay": 15.0,
        "file_size_kib": 4096,
        "piece_length": 65_536,
        "dt": 0.25,
        "max_time": 7_200.0,
        "base_seed": 1500,
    }

    def cells(self, p):
        for variant in ("default", "wp2p"):
            for size in p["swarm_sizes"]:
                for fraction in p["mobile_fractions"]:
                    if fraction == 0.0 and variant == "wp2p":
                        # No mobile hosts -> the variants are identical;
                        # keep one baseline cell instead of two copies.
                        continue
                    for r in range(p["runs"]):
                        yield (variant, size, fraction), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        variant, size, fraction = key
        return packet_cell(seed, int(size), float(fraction),
                           wp2p=(variant == "wp2p"), p=dict(p))

    def run_cell_fluid(self, key, seed, p):
        variant, size, fraction = key
        return fluid_cell(int(size), float(fraction),
                          wp2p=(variant == "wp2p"), p=dict(p))

    def assemble(self, p, values, failures):
        sizes = [int(s) for s in p["swarm_sizes"]]
        fractions = [float(f) for f in p["mobile_fractions"]]
        headline = next((f for f in fractions if f > 0.0), fractions[0])
        max_time = float(p["max_time"])

        def mean_completion(variant: str, size: int, fraction: float) -> float:
            lookup = variant if fraction > 0.0 else "default"
            vals = collect(values, (lookup, size, fraction))
            if not vals:
                return max_time
            times = [
                v["completion"] if v["completion"] is not None else max_time
                for v in vals
            ]
            return sum(times) / len(times)

        series = [
            Series(
                f"Default P2P ({headline:.0%} mobile)",
                [float(s) for s in sizes],
                [mean_completion("default", s, headline) for s in sizes],
            ),
            Series(
                f"wP2P ({headline:.0%} mobile)",
                [float(s) for s in sizes],
                [mean_completion("wp2p", s, headline) for s in sizes],
            ),
        ]
        if 0.0 in fractions:
            series.insert(0, Series(
                "All-wired baseline",
                [float(s) for s in sizes],
                [mean_completion("default", s, 0.0) for s in sizes],
            ))

        grid: Dict[str, Dict[str, object]] = {}
        total_steps = 0.0
        peak_swarm = 0.0
        for (variant, size, fraction), seed in sorted(
            values, key=lambda cell: (cell[0][0], cell[0][1], cell[0][2], cell[1])
        ):
            v = values[((variant, size, fraction), seed)]
            grid[f"{variant}/{size}/{fraction:g}"] = {
                "completion": v["completion"],
                "mobile_completion": v["mobile_completion"],
                "mobile_goodput": v["mobile_goodput"],
                "wired_goodput": v["wired_goodput"],
                "playable_at_half": v["playable_at_half"],
            }
            total_steps += float(v["steps"])
            peak_swarm = max(peak_swarm, float(v["peak_swarm"]))

        return ExperimentResult(
            figure="Scale sweep",
            title="Completion time vs swarm size and mobile-host fraction",
            x_label="Swarm size (peers)",
            y_label="Completion time (s)",
            series=series,
            paper_expectation=(
                "completion time rises with the mobile-host fraction at "
                "every swarm size; wP2P (identity retention + LIHD) stays "
                "ahead of the default client wherever mobile hosts are "
                "present, extending the paper's small-testbed findings to "
                "realistic swarm sizes"
            ),
            notes=(
                "mobile fractions swept: "
                + ", ".join(f"{f:g}" for f in fractions)
            ),
            parameters={
                "swarm_sizes": sizes,
                "mobile_fractions": fractions,
                "runs": p["runs"],
                "grid": grid,
                "engine_steps": total_steps,
                "peak_swarm_size": peak_swarm,
            },
        )
