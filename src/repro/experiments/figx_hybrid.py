"""Hybrid sweep — focal mobile fraction × background size (``figx_hybrid``).

Not a figure from the paper: the paper's per-client questions (§3.4
default-client restarts vs §5 wP2P identity retention) re-asked *inside*
swarms only the fluid tier can represent.  A handful of packet-level
focal leechers — full TCP, choker, mobility, wP2P machinery — download
through the :mod:`repro.scale.hybrid` coupling facade from a mean-field
background of 10^3..10^5 peers, sweeping the fraction of focal hosts
that are mobile and the background size, for the default client vs
wP2P.

Expectation: focal completion time rises with the focal mobile
fraction (handoffs + restart penalty are packet-level effects), wP2P
stays ahead of the default client wherever focal mobiles are present,
and the background size moves completion only through the fluid
utilization trajectory — the per-client mechanisms keep operating
unchanged at every scale, which is exactly what the hybrid backend
exists to show.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import chaos as chaos_mod
from ..analysis import ExperimentResult, Series
from ..chaos import preset_schedule
from ..runner import Scenario, collect, scenario
from ..scale import HybridSpec, run_hybrid

BACKGROUND_SIZES: Sequence[int] = (1_000, 10_000, 100_000)
FOCAL_MOBILE_FRACTIONS: Sequence[float] = (0.0, 0.5, 1.0)


def hybrid_cell(
    seed: int,
    background_size: int,
    focal_mobile_fraction: float,
    wp2p: bool,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One hybrid cell: focal packet hosts inside a fluid background."""
    focal = int(p["focal_hosts"])
    mobile = round(focal * focal_mobile_fraction)
    wired = focal - mobile
    seeds = float(background_size) * float(p["background_seed_fraction"])
    spec = HybridSpec(
        focal_seeds=0,
        focal_wired=wired,
        focal_mobile=mobile,
        wp2p=wp2p,
        background_seeds=seeds,
        background_wired=float(background_size) - seeds,
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        seed_up_rate=float(p["seed_up_rate"]),
        wired_up_rate=float(p["wired_up_rate"]),
        wired_down_rate=float(p["wired_down_rate"]),
        mobile_up_rate=float(p["mobile_up_rate"]),
        wireless_rate=float(p["wireless_rate"]),
        handoff_interval=(
            float(p["handoff_interval"]) if mobile > 0 else None
        ),
        handoff_downtime=float(p["handoff_downtime"]),
        restart_delay=float(p["restart_delay"]),
        coupling_interval=float(p["coupling_interval"]),
        max_time=float(p["max_time"]),
    )
    # The packet side picks the ambient --chaos preset up on its own
    # (the scenario builder arms it against the focal peers); mapping
    # the same schedule through chaosmap strikes the background classes.
    schedule = None
    opts = chaos_mod.options()
    if opts is not None:
        schedule = preset_schedule(
            str(opts["preset"]), float(opts["intensity"]), float(opts["horizon"])
        )
    result = run_hybrid(spec, seed=seed, chaos=schedule)

    def _mean(names: List[str], attr: str) -> Optional[float]:
        vals = []
        for name in names:
            fr = result.focal[name]
            value = getattr(fr, attr)
            if attr == "completion_time" and value is None:
                value = spec.max_time
            vals.append(value)
        return sum(vals) / len(vals) if vals else None

    wired_names = [f"w{i}" for i in range(wired)]
    mobile_names = [f"m{i}" for i in range(mobile)]
    return {
        "completion": result.focal_completion_time(),
        "wired_completion": _mean(wired_names, "completion_time"),
        "mobile_completion": _mean(mobile_names, "completion_time"),
        "wired_goodput": _mean(wired_names, "mean_goodput"),
        "mobile_goodput": _mean(mobile_names, "mean_goodput"),
        "utilization_mean": result.utilization_mean,
        "couplings": result.couplings,
        "steps": result.packet_events + result.fluid_steps,
        "peak_swarm": float(background_size) + float(focal),
    }


@scenario
class FigXHybrid(Scenario):
    """Focal mobile fraction × background size, default vs wP2P clients."""

    name = "figx_hybrid"
    description = (
        "Hybrid sweep: packet-level focal hosts inside a 10^3..10^5-peer "
        "fluid background, focal mobile fraction x background size, "
        "default vs wP2P"
    )
    backends = ("hybrid",)
    defaults = {
        "background_sizes": list(BACKGROUND_SIZES),
        "focal_mobile_fractions": list(FOCAL_MOBILE_FRACTIONS),
        "focal_hosts": 4,
        "runs": 1,
        "background_seed_fraction": 0.2,
        "seed_up_rate": 64_000.0,
        "wired_up_rate": 32_000.0,
        "wired_down_rate": 400_000.0,
        "mobile_up_rate": 16_000.0,
        "wireless_rate": 80_000.0,
        "handoff_interval": 40.0,
        "handoff_downtime": 1.0,
        "restart_delay": 15.0,
        "file_size_kib": 1024,
        "piece_length": 65_536,
        "coupling_interval": 2.0,
        "max_time": 3_600.0,
        "base_seed": 1700,
    }

    def cells(self, p):
        for variant in ("default", "wp2p"):
            for size in p["background_sizes"]:
                for fraction in p["focal_mobile_fractions"]:
                    if fraction == 0.0 and variant == "wp2p":
                        # No focal mobiles -> the variants are identical;
                        # keep one baseline cell instead of two copies.
                        continue
                    for r in range(p["runs"]):
                        yield (variant, size, fraction), p["base_seed"] + r

    def run_cell_hybrid(self, key, seed, p):
        variant, size, fraction = key
        return hybrid_cell(seed, int(size), float(fraction),
                           wp2p=(variant == "wp2p"), p=dict(p))

    def assemble(self, p, values, failures):
        sizes = [int(s) for s in p["background_sizes"]]
        fractions = [float(f) for f in p["focal_mobile_fractions"]]
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
                f"Default P2P ({headline:.0%} focal mobile)",
                [float(s) for s in sizes],
                [mean_completion("default", s, headline) for s in sizes],
            ),
            Series(
                f"wP2P ({headline:.0%} focal mobile)",
                [float(s) for s in sizes],
                [mean_completion("wp2p", s, headline) for s in sizes],
            ),
        ]
        if 0.0 in fractions:
            series.insert(0, Series(
                "All-wired focal baseline",
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
                "wired_completion": v["wired_completion"],
                "mobile_goodput": v["mobile_goodput"],
                "wired_goodput": v["wired_goodput"],
                "utilization_mean": v["utilization_mean"],
            }
            total_steps += float(v["steps"])
            peak_swarm = max(peak_swarm, float(v["peak_swarm"]))

        return ExperimentResult(
            figure="Hybrid sweep",
            title=("Focal completion time vs background size and focal "
                   "mobile fraction"),
            x_label="Background swarm size (peers)",
            y_label="Focal completion time (s)",
            series=series,
            paper_expectation=(
                "focal completion time rises with the focal mobile "
                "fraction at every background size; wP2P focal hosts stay "
                "ahead of default-client ones wherever focal mobiles are "
                "present — the paper's per-client mechanisms keep working "
                "unchanged inside swarms only the fluid tier can represent"
            ),
            notes=(
                "focal mobile fractions swept: "
                + ", ".join(f"{f:g}" for f in fractions)
            ),
            parameters={
                "background_sizes": sizes,
                "focal_mobile_fractions": fractions,
                "focal_hosts": p["focal_hosts"],
                "runs": p["runs"],
                "grid": grid,
                "engine_steps": total_steps,
                "peak_swarm_size": peak_swarm,
            },
        )
