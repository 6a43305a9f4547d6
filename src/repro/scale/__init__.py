"""repro.scale — the mean-field fluid swarm tier.

The packet-level simulator (:mod:`repro.sim` + :mod:`repro.bittorrent`)
is the ground truth of this library, but its cost grows with every
packet on every link: swarms top out at tens of peers.  The ROADMAP
north star is *millions*.  This package adds the approximate-inference
tier that gets there: a deterministic mean-field/fluid engine
(:class:`FluidSwarm`) that evolves peer-class *populations* — wired
seeds and leechers, mobile leechers running the default client or wP2P
— through ODE-style updates of churn, piece-availability coupling,
upload-capacity sharing, handoff/disconnection duty cycles, and
LIHD-style upload throttling.  Cost is per class and per time step,
never per peer, so a 10^6-peer swarm integrates in milliseconds.

An approximate tier is only trustworthy while it is anchored to its
reference implementation: the ``figx_xval`` scenario
(:mod:`repro.experiments.figx_xval`) runs *matched* small-N swarms on
every tier and its ``check()`` gates the fluid model at a stated
tolerance of packet-level completion time and mean goodput
(``python -m repro.experiments run figx_xval --check``, run by CI).

Quick use::

    from repro.scale import FluidParams, FluidSwarm, PeerClass

    result = FluidSwarm(FluidParams(
        file_size=16 << 20, piece_length=1 << 18,
        classes=(
            PeerClass("seeds", 500, 200_000.0, 1_000_000.0, seed=True),
            PeerClass("wired", 79_500, 48_000.0, 500_000.0),
            PeerClass("mobile", 20_000, 24_000.0, 100_000.0, mobile=True,
                      wireless_shared=True, handoff_interval=90.0),
        ),
    )).run()
    print(result.classes["mobile"].completion_time)

Through the runner, the same engine sits behind
``python -m repro.experiments run figx_scale --backend fluid``.
"""

from .chaosmap import (
    CrashImpulse,
    RateWindow,
    class_matches,
    schedule_modifiers,
)
from .fluid import FluidSwarm
from .hybrid import (
    FACADE_NAME,
    FocalResult,
    HybridResult,
    HybridSpec,
    HybridSwarm,
    run_hybrid,
)
from .model import (
    CONTENT_MODES,
    ClassResult,
    FluidParams,
    FluidResult,
    PeerClass,
    coded_fetchability,
    content_rate_factor,
    expected_prefix_fraction,
    playability_surrogate,
)

__all__ = [
    "CONTENT_MODES",
    "ClassResult",
    "CrashImpulse",
    "FACADE_NAME",
    "FluidParams",
    "FluidResult",
    "FluidSwarm",
    "FocalResult",
    "HybridResult",
    "HybridSpec",
    "HybridSwarm",
    "PeerClass",
    "RateWindow",
    "class_matches",
    "coded_fetchability",
    "content_rate_factor",
    "expected_prefix_fraction",
    "playability_surrogate",
    "run_hybrid",
    "schedule_modifiers",
]
