"""Strategy mixes: name→fraction compositions over peer populations.

A *mix* says which fraction of a swarm runs which
:class:`~repro.strategy.base.ClientStrategy`, optionally split by
population — ``"wired"``, ``"mobile"`` or ``"all"``.  Three input
shapes are accepted and canonicalised by :func:`normalize_mix`::

    "freerider"                                  # the whole population
    {"freerider": 0.25}                          # implied population: all
    {"mobile": {"freerider": 0.5}, "wired": {}}  # explicit populations

Fractions within a population may sum to less than 1; the remainder
implicitly runs ``reference``.  The canonical form is pure JSON data
(population → name → float), so a mix folds directly into
:meth:`~repro.runner.spec.ScenarioSpec.spec_hash` and ships to pool
workers unchanged.

Peer-to-strategy assignment (:class:`MixAssigner`) is deterministic —
a largest-deficit quota walk, no RNG — so installing an all-``reference``
mix (or none) leaves the simulation trajectory byte-identical to a run
from before this layer existed.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from ..summation import left_sum
from .registry import get_strategy

#: Populations a mix may address.  ``"all"`` is the fallback for any
#: population without its own entry.
POPULATIONS = ("all", "wired", "mobile")

#: The strategy a population's unassigned remainder runs.
DEFAULT_STRATEGY = "reference"

MixInput = Union[str, Mapping[str, Union[float, int, Mapping[str, Union[float, int]]]]]
Mix = Dict[str, Dict[str, float]]

_EPS = 1e-9


def _normalize_weights(weights: Mapping[str, object], where: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    total = 0.0
    for name in sorted(weights):
        raw = weights[name]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ValueError(
                f"strategy fraction for {name!r} {where} must be a number, "
                f"got {raw!r}"
            )
        fraction = float(raw)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"strategy fraction for {name!r} {where} must be in [0, 1], "
                f"got {fraction!r}"
            )
        get_strategy(name)  # unknown names fail eagerly
        total += fraction
        if fraction > 0.0:
            out[name] = fraction
    if total > 1.0 + _EPS:
        raise ValueError(
            f"strategy fractions {where} sum to {total:g} > 1"
        )
    return out


def normalize_mix(mix: Optional[MixInput]) -> Mix:
    """Canonicalise any accepted input shape; validate names/fractions."""
    if not mix:
        return {}
    if isinstance(mix, str):
        mix = {mix: 1.0}
    keys = list(mix)
    population_form = any(k in POPULATIONS for k in keys)
    if population_form:
        stray = [k for k in keys if k not in POPULATIONS]
        if stray:
            raise ValueError(
                "strategy mix mingles population keys with strategy keys: "
                f"{stray!r} (populations are {', '.join(POPULATIONS)})"
            )
        out: Mix = {}
        for population in sorted(keys):
            weights = mix[population]
            if not isinstance(weights, Mapping):
                raise ValueError(
                    f"population {population!r} must map strategy names to "
                    f"fractions, got {weights!r}"
                )
            normalized = _normalize_weights(weights, f"in population {population!r}")
            if normalized:
                out[population] = normalized
        return out
    flat = _normalize_weights(mix, "in the mix")
    return {"all": flat} if flat else {}


def mix_is_default(mix: Mix) -> bool:
    """True when every population effectively runs pure ``reference``."""
    return all(
        set(weights) <= {DEFAULT_STRATEGY} for weights in mix.values()
    )


class MixAssigner:
    """Deterministic peer-by-peer strategy assignment for one scenario.

    Largest-deficit quota walk per population: the *k*-th peer gets the
    strategy whose ideal share of ``k+1`` peers most exceeds what it
    has been assigned so far (ties break to the lexicographically first
    name).  Exact, order-stable, and RNG-free — the same swarm built
    twice assigns identically, and a scenario's seeded streams are
    never consumed by strategy assignment.
    """

    def __init__(self, mix: Optional[MixInput]) -> None:
        self.mix: Mix = normalize_mix(mix)
        self._assigned: Dict[str, Dict[str, int]] = {}
        self._totals: Dict[str, int] = {}

    def weights_for(self, population: str) -> Dict[str, float]:
        """Effective weights (remainder folded into ``reference``)."""
        key = self._resolve(population)
        weights = dict(self.mix.get(key, {}))
        explicit = left_sum(weights.values())
        if explicit < 1.0 - _EPS:
            weights[DEFAULT_STRATEGY] = (
                weights.get(DEFAULT_STRATEGY, 0.0) + (1.0 - explicit)
            )
        return weights

    def _resolve(self, population: str) -> str:
        if population not in POPULATIONS:
            raise ValueError(
                f"unknown population {population!r}; "
                f"choose from {', '.join(POPULATIONS)}"
            )
        return population if population in self.mix else "all"

    def assign(self, population: str) -> str:
        """The strategy name for the next peer of ``population``."""
        key = self._resolve(population)
        weights = self.weights_for(population)
        assigned = self._assigned.setdefault(key, {})
        k = self._totals.get(key, 0)
        best = DEFAULT_STRATEGY
        best_deficit = float("-inf")
        for name in sorted(weights):
            deficit = weights[name] * (k + 1) - assigned.get(name, 0)
            if deficit > best_deficit + _EPS:
                best, best_deficit = name, deficit
        self._totals[key] = k + 1
        assigned[best] = assigned.get(best, 0) + 1
        return best
