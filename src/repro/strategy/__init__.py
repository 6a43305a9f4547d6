"""repro.strategy — pluggable client strategies and strategy mixes.

The incentive layer made first-class: a
:class:`~repro.strategy.base.ClientStrategy` bundles a
:class:`~repro.strategy.base.ChokerPolicy` (the ranking/slot-allocation
half of choking — round scheduling stays in the shared
:class:`~repro.bittorrent.choker.ChokerDriver`), an optional piece
selector and client behaviour overrides under one registry-resolved
name.  Built-ins: ``reference`` (tit-for-tat), ``freerider``,
``tyrant`` (BitTyrant-style) and ``propshare`` (Nielson et al.'s
robust proportional-share choker).

Strategies reach a swarm two ways, mirroring :mod:`repro.chaos`:

Explicitly, per peer::

    swarm.add_wired_peer("leech0", strategy="tyrant")

As a mix (name → fraction, optionally per population) held by the run
context's ``strategies`` value, which ``Runner(strategies=...)`` and the
CLI's ``--strategy``/``--strategy-mix`` flags enter around every cell::

    from repro import context

    with context.scope(strategies=normalize_mix({"mobile": {"freerider": 0.5}})):
        run_cell(...)    # every new SwarmScenario draws from the mix

An explicit per-peer ``strategy=`` beats the mix.  Strategy assignment
is deterministic (no RNG), off by default, and costs one ``is None``
check per scenario when off.
"""

from __future__ import annotations

from .base import ChokerPolicy, ClientStrategy
from .mix import (
    DEFAULT_STRATEGY,
    POPULATIONS,
    Mix,
    MixAssigner,
    mix_is_default,
    normalize_mix,
)
from .policies import (
    FreeriderPolicy,
    PropSharePolicy,
    ReferencePolicy,
    TyrantPolicy,
    contribution_rate,
)
from .registry import (
    UnknownStrategyError,
    get_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
)

__all__ = [
    "ChokerPolicy",
    "ClientStrategy",
    "DEFAULT_STRATEGY",
    "FreeriderPolicy",
    "Mix",
    "MixAssigner",
    "POPULATIONS",
    "PropSharePolicy",
    "ReferencePolicy",
    "TyrantPolicy",
    "UnknownStrategyError",
    "contribution_rate",
    "get_strategy",
    "mix_is_default",
    "normalize_mix",
    "register_strategy",
    "resolve_strategy",
    "strategy_names",
]
