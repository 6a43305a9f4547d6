"""Experiment reproductions — one registered scenario per figure.

Importing this package registers every figure of the paper (``fig2a`` …
``fig9c``), every extension sweep (``figx_*``) and the design-choice
ablations (``ablation_*``) with :mod:`repro.runner`;
``python -m repro.experiments list`` prints them with their
descriptions.  Run one with ``repro.runner.Runner().run(name,
overrides)`` or ``python -m repro.experiments run``.

Each run returns an :class:`repro.analysis.ExperimentResult` whose ``table()``
prints the same rows/series the paper plots, alongside the paper's
qualitative expectation; each scenario's ``check()`` states the paper's
claims about it as verdicts (``run NAME --check``).
"""

from ..apps.bulk import BulkSender, Payload
from .base import TransferStats, WirelessPairTopology, random_piece_subset, run_transfer
from .fig2_bitcp import (
    cluster_drops,
    drop_response_ratio,
    post_congestion_starvation,
)
from . import fig3_incentives  # noqa: F401  (registers fig3a/fig3b/fig3c)
from .fig4_mobility import playability_run
from . import fig8_wp2p, fig9_wp2p  # noqa: F401  (register fig8a-c, fig9ab/fig9c)
from .figx_arena import arena_run
from .figx_cdn import cdn_fluid_run, cdn_run
from .figx_chaos import chaos_run
from .figx_erasure import erasure_run, erasure_schedule
from .figx_hybrid import hybrid_cell
from .figx_scale import fluid_cell, packet_cell
from . import figx_xval  # noqa: F401  (registers figx_xval)
from . import ablations  # noqa: F401  (registers the ablation_* scenarios)

__all__ = [
    "BulkSender",
    "Payload",
    "TransferStats",
    "WirelessPairTopology",
    "random_piece_subset",
    "run_transfer",
    "cluster_drops",
    "drop_response_ratio",
    "post_congestion_starvation",
    "playability_run",
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
