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

from .. import context
from ..runner import scenario
from ..scale import run_hybrid
from ..summation import left_sum
from .figx_scale import SizeSweep, sweep_spec

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
    seeds = float(background_size) * float(p["background_seed_fraction"])
    spec = sweep_spec(
        p, 0, focal, focal_mobile_fraction, wp2p,
        background_seeds=seeds,
        background_wired=float(background_size) - seeds,
        coupling_interval=float(p["coupling_interval"]),
    )
    # The packet side picks the ambient --chaos preset up on its own
    # (the scenario builder arms it against the focal peers); mapping
    # the same schedule through chaosmap strikes the background classes.
    schedule = context.get("chaos")
    result = run_hybrid(spec, seed=seed, chaos=schedule)

    def _mean(names: List[str], attr: str) -> Optional[float]:
        vals = []
        for name in names:
            fr = result.focal[name]
            value = getattr(fr, attr)
            if attr == "completion_time" and value is None:
                value = spec.max_time
            vals.append(value)
        return left_sum(vals) / len(vals) if vals else None

    wired_names = [f"w{i}" for i in range(spec.focal_wired)]
    mobile_names = [f"m{i}" for i in range(spec.focal_mobile)]
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
class FigXHybrid(SizeSweep):
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
    sizes, fractions, who = "background_sizes", "focal_mobile_fractions", "focal "
    summary = ("completion", "mobile_completion", "wired_completion",
               "mobile_goodput", "wired_goodput", "utilization_mean")
    figure = "Hybrid sweep"
    title = "Focal completion time vs background size and focal mobile fraction"
    x_label = "Background swarm size (peers)"
    y_label = "Focal completion time (s)"
    paper_expectation = (
        "focal completion time rises with the focal mobile "
        "fraction at every background size; wP2P focal hosts stay "
        "ahead of default-client ones wherever focal mobiles are "
        "present — the paper's per-client mechanisms keep working "
        "unchanged inside swarms only the fluid tier can represent"
    )
    reports = {"focal_hosts": "focal_hosts", "runs": "runs"}

    def run_cell_hybrid(self, key, seed, p):
        variant, size, fraction = key
        return hybrid_cell(seed, int(size), float(fraction),
                           wp2p=(variant == "wp2p"), p=dict(p))
