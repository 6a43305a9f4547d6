"""Scale sweep — swarm size × mobile-host fraction (``figx_scale``).

Not a figure from the paper: the paper's mobile-vs-wired findings
(§3.4–§5.2) extended to realistic swarm sizes on the
:mod:`repro.scale` mean-field fluid backend.  A swarm of ``N`` peers —
a fixed block of wired seeds plus wired leechers and a ``mobile_fraction``
of mobile leechers — downloads one file; the mobile leechers either run
the deployed-client **default** policy (every IP change tears the task
down and rejoins under a fresh peer ID) or **wP2P** (identity retention
+ LIHD upload throttling on the shared wireless cell).

A cell's swarm is one :class:`~repro.scale.HybridSpec` in which every
peer is focal (:func:`scale_spec`).  The scenario supports both
backends: ``fluid`` (the default) integrates the spec's class
decomposition and handles 10^2–10^6 peers in milliseconds per cell;
``packet`` builds the spec's real discrete-event swarm and is capped at
small N, where it serves as the cross-validation anchor (the
``figx_xval`` scenario runs the systematic comparison).

Expectation: completion time degrades as the mobile-host fraction
rises, wP2P stays ahead of the default client wherever mobile hosts are
present, and both backends agree at small N.

Every :class:`SizeSweep` cell returns the same fields (``completion``,
``wired_completion``, ``mobile_completion``, ``wired_goodput``,
``mobile_goodput``), but each backend fills them with its own statistic:

* :func:`packet_cell`: a group's completion is its last finisher, or
  ``None`` if any member is censored at ``max_time``; goodput averages
  bytes over completion time across the clients that finished, skipping
  the unfinished ones.
* :func:`fluid_cell`: a class's completion is the time its class-mean
  progress reaches 1, and ``completion`` the latest leecher class's
  (``None`` if one is censored); goodput is the class mean.
* :func:`~repro.experiments.figx_hybrid.hybrid_cell`: the mean over the
  focal hosts, a censored host counted at ``max_time``; goodput averages
  every focal leecher, an unfinished one over ``max_time``.

So the same field compares a maximum, a class mean and a censored mean
across backends.  Making them one statistic moves pinned values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import context
from ..analysis import Series, sweep
from ..runner import Scenario, Verdict, collect, scenario
from ..scale import FluidSwarm, HybridSpec
from ..summation import left_sum

SWARM_SIZES: Sequence[int] = (100, 1_000, 10_000, 100_000)
MOBILE_FRACTIONS: Sequence[float] = (0.0, 0.2, 0.5)

#: The packet backend builds one real host per peer; beyond this the
#: event-level simulator is the wrong tool (that is what fluid is for).
PACKET_SIZE_CAP = 64


def sweep_spec(
    p: Dict[str, object],
    seeds: int,
    leechers: int,
    mobile_fraction: float,
    wp2p: bool,
    **fields: object,
) -> HybridSpec:
    """The swarm of one :class:`SizeSweep` cell: ``seeds`` focal seeds and
    ``leechers`` focal leechers, a ``mobile_fraction`` of them mobile,
    with the sizes, rates and times of the scenario parameters ``p``;
    ``fields`` sets the rest (the background, the tier's own step)."""
    mobile = round(leechers * mobile_fraction)
    return HybridSpec(
        focal_seeds=seeds,
        focal_wired=leechers - mobile,
        focal_mobile=mobile,
        wp2p=wp2p,
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        seed_up_rate=float(p["seed_up_rate"]),
        wired_up_rate=float(p["wired_up_rate"]),
        wired_down_rate=float(p["wired_down_rate"]),
        mobile_up_rate=float(p["mobile_up_rate"]),
        wireless_rate=float(p["wireless_rate"]),
        handoff_interval=float(p["handoff_interval"]),
        handoff_downtime=float(p["handoff_downtime"]),
        restart_delay=float(p["restart_delay"]),
        max_time=float(p["max_time"]),
        **fields,
    )


def scale_spec(
    size: int,
    mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> HybridSpec:
    """One ``figx_scale`` cell's swarm: ``size`` focal peers, a fixed
    block of seeds and the rest leechers."""
    seeds = min(size - 1, int(p["seed_count"]))
    return sweep_spec(p, seeds, size - seeds, mobile_fraction, wp2p,
                      dt=float(p["dt"]))


def fluid_cell(
    size: int,
    mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One fluid-backend cell: per-class completion/goodput + engine stats."""
    params = scale_spec(size, mobile_fraction, wp2p, p).fluid_params()
    # Mirror the packet path's ambient chaos: the runner's --chaos preset
    # maps onto fluid rate windows (churn, tracker outage, ...).
    schedule = context.get("chaos")
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
    """One packet-backend cell: the same swarm as real hosts."""
    if size > PACKET_SIZE_CAP:
        raise ValueError(
            f"packet backend supports swarm_size <= {PACKET_SIZE_CAP} "
            f"(got {size}); use --backend fluid for large swarms"
        )
    spec = scale_spec(size, mobile_fraction, wp2p, p)
    sc = spec.packet_swarm(seed)
    sc.start_all()
    leechers = [n for n, h in sc.peers.items() if not h.client.complete]
    sc.run_until_complete(names=leechers, timeout=spec.max_time)

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
        return left_sum(rates) / len(rates) if rates else None

    wired_names = [f"w{i}" for i in range(spec.focal_wired)]
    mobile_names = [f"m{i}" for i in range(spec.focal_mobile)]
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


class SizeSweep(Scenario):
    """Swarm size × mobile fraction, default vs wP2P: the grammar
    ``figx_scale`` and ``figx_hybrid`` share."""

    sizes = ""  #: the param holding the swarm sizes
    fractions = ""  #: the param holding the mobile fractions
    who = ""  #: label qualifier of the mobile hosts ("focal ")
    summary: Sequence[str] = ()  #: value fields kept per cell in ``grid``

    def grid(self, p):
        outside = [f for f in p[self.fractions] if not 0.0 <= float(f) <= 1.0]
        if outside:
            raise ValueError(f"{self.fractions} must lie in [0, 1] (got {outside})")
        return [
            (variant, size, fraction)
            for variant in ("default", "wp2p")
            for size in p[self.sizes]
            for fraction in p[self.fractions]
            # No mobile hosts -> the variants are identical; keep one
            # baseline cell instead of two copies.
            if not (variant == "wp2p" and fraction == 0.0)
        ]

    def assemble(self, p, values, failures):
        sizes = [int(s) for s in p[self.sizes]]
        fractions = [float(f) for f in p[self.fractions]]
        headline = next((f for f in fractions if f > 0.0), fractions[0])
        max_time = float(p["max_time"])

        def completion(label: str, variant: str, fraction: float) -> Series:
            lookup = variant if fraction > 0.0 else "default"
            # A run that never finished is censored at max_time.
            return sweep(label, [float(s) for s in sizes], (
                [max_time if v["completion"] is None else v["completion"]
                 for v in collect(values, (lookup, size, fraction))]
                for size in sizes
            ), spread=False)

        series = [
            completion(f"Default P2P ({headline:.0%} {self.who}mobile)",
                       "default", headline),
            completion(f"wP2P ({headline:.0%} {self.who}mobile)", "wp2p", headline),
        ]
        if 0.0 in fractions:
            series.insert(0, completion(f"All-wired {self.who}baseline", "default", 0.0))

        grid: Dict[str, Dict[str, object]] = {}
        total_steps = 0.0
        peak_swarm = 0.0
        for (variant, size, fraction), seed in sorted(values):
            v = values[((variant, size, fraction), seed)]
            grid[f"{variant}/{size}/{fraction:g}"] = {f: v[f] for f in self.summary}
            total_steps += float(v["steps"])
            peak_swarm = max(peak_swarm, float(v["peak_swarm"]))
        return self.result(
            p, series,
            {self.sizes: sizes, self.fractions: fractions, "grid": grid,
             "engine_steps": total_steps, "peak_swarm_size": peak_swarm},
            notes=f"{self.who}mobile fractions swept: "
                  + ", ".join(f"{f:g}" for f in fractions),
        )


@scenario
class FigXScale(SizeSweep):
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
    sizes, fractions = "swarm_sizes", "mobile_fractions"
    summary = ("completion", "mobile_completion", "mobile_goodput",
               "wired_goodput", "playable_at_half")
    figure = "Scale sweep"
    title = "Completion time vs swarm size and mobile-host fraction"
    x_label = "Swarm size (peers)"
    y_label = "Completion time (s)"
    paper_expectation = (
        "completion time rises with the mobile-host fraction at "
        "every swarm size; wP2P (identity retention + LIHD) stays "
        "ahead of the default client wherever mobile hosts are "
        "present, extending the paper's small-testbed findings to "
        "realistic swarm sizes"
    )
    reports = {"runs": "runs"}

    def run_cell(self, key, seed, p):
        variant, size, fraction = key
        return packet_cell(seed, int(size), float(fraction),
                           wp2p=(variant == "wp2p"), p=dict(p))

    def run_cell_fluid(self, key, seed, p):
        variant, size, fraction = key
        return fluid_cell(int(size), float(fraction),
                          wp2p=(variant == "wp2p"), p=dict(p))

    def check(self, run):
        default, wp2p = run.result.series[-2:]
        return [Verdict(
            "wp2p_ahead_at_every_size",
            all(w < d for w, d in zip(wp2p.y, default.y)),
            {"completion_ratio": [w / d for w, d in zip(wp2p.y, default.y)]},
        )]
