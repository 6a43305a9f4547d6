"""Experiment reproductions — one registered scenario per figure.

Importing this package registers every figure of the paper (``fig2a`` …
``fig9c``) and every extension sweep (``figx_*``) with
:mod:`repro.runner`; ``python -m repro.experiments list`` prints them
with their descriptions.  Run one with
``repro.runner.run_scenario(name, overrides)`` (serial, uncached),
``Runner.run`` (parallel, cached) or ``python -m repro.experiments run``.

Each run returns an :class:`repro.analysis.ExperimentResult` whose ``table()``
prints the same rows/series the paper plots, alongside the paper's
qualitative expectation.
"""

from .base import (
    BulkSender,
    Payload,
    TransferStats,
    WirelessPairTopology,
    mean_over_seeds,
    random_piece_subset,
    run_transfer,
)
from .fig2_bitcp import (
    cluster_drops,
    drop_response_ratio,
    post_congestion_starvation,
)
from . import fig3_incentives  # noqa: F401  (registers fig3a/fig3b/fig3c)
from .fig4_mobility import playability_run
from .fig8_wp2p import am_only_config, ia_config
from .fig9_wp2p import mf_only_config, rr_only_config
from .figx_arena import arena_run
from .figx_cdn import cdn_fluid_run, cdn_run
from .figx_chaos import chaos_run
from .figx_erasure import erasure_run, erasure_schedule
from .figx_hybrid import hybrid_cell
from .figx_scale import fluid_cell, packet_cell

__all__ = [
    "BulkSender",
    "Payload",
    "TransferStats",
    "WirelessPairTopology",
    "mean_over_seeds",
    "random_piece_subset",
    "run_transfer",
    "cluster_drops",
    "drop_response_ratio",
    "post_congestion_starvation",
    "playability_run",
    "am_only_config",
    "ia_config",
    "mf_only_config",
    "rr_only_config",
    "arena_run",
    "cdn_fluid_run",
    "cdn_run",
    "chaos_run",
    "erasure_run",
    "erasure_schedule",
    "hybrid_cell",
    "fluid_cell",
    "packet_cell",
]
