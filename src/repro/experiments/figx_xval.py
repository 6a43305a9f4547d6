"""Tier cross-validation — fluid and hybrid against their references (``figx_xval``).

Not a figure from the paper: the warranty of the tiers that carry the
paper's mobile-host findings to 10^2–10^5 peers (``figx_scale`` on the
fluid backend, ``figx_hybrid`` on the hybrid one).  A :class:`Case`
names one :class:`~repro.scale.HybridSpec`, which builds the same swarm
on every tier: a small all-focal swarm as a real
:class:`~repro.bittorrent.swarm.SwarmScenario` (hosts, links, TCP, the
works) and as the equivalent fluid class decomposition, or focal packet
hosts inside a 10^4-peer fluid background.  Every cell measures leecher
*completion time* and *mean goodput* on one tier, and :meth:`FigXXval.check`
states the three gates:

* the fluid tier tracks packet within :data:`DEFAULT_TOLERANCE`;
* an all-focal (zero-background) hybrid run reproduces packet exactly
  (:data:`EQUIVALENCE_TOLERANCE`): both run the spec's one packet swarm,
  so the gate checks the hybrid driver and its focal measurement;
* embedded focal hosts track the pure-fluid prediction for them within
  :data:`DEFAULT_TOLERANCE`, so the coupling facade neither starves nor
  over-serves them.

The small cases span the axes the fluid model claims to capture: an
all-wired swarm (pure capacity sharing), mobile default-client leechers
(handoff duty cycles + restart penalty + shared wireless airtime), and
the same swarm on wP2P (identity retention + LIHD).  CI runs
``run figx_xval --check``, so calibration drift — the ``efficiency`` /
``startup_delay`` constants going stale against an improved packet
simulator — fails loudly instead of silently skewing every large-N
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..analysis import sweep
from ..runner import Scenario, Verdict, collect, scenario
from ..scale import FluidSwarm, HybridSpec, run_hybrid
from ..summation import left_sum

#: Maximum relative error at which an approximate tier is anchored.
DEFAULT_TOLERANCE = 0.15

#: Tolerance of the all-focal equivalence gate: exact, not approximate.
EQUIVALENCE_TOLERANCE = 1e-9

#: Reference magnitude below which the relative error becomes an
#: absolute one (both metrics — seconds and bytes/second — are far
#: above 1.0 whenever they are meaningful).
REL_ERROR_ATOL = 1.0

#: What every cell measures, with its column name in the result table.
METRICS: Mapping[str, str] = {"completion_time": "time", "mean_goodput": "goodput"}


def _observation(completion_time: float, mean_goodput: float) -> Dict[str, float]:
    return {"completion_time": completion_time, "mean_goodput": mean_goodput}


@dataclass(frozen=True)
class Case:
    """One swarm the tiers are compared on.

    A spec without a background runs on every tier, and its packet run
    is the reference of the fluid and the all-focal hybrid runs.  A spec
    with a background embeds its focal hosts in a fluid swarm, and the
    fluid run, with the focal hosts as classes of their own, is the
    reference of the hybrid run.
    """

    name: str
    description: str
    spec: HybridSpec

    @property
    def tiers(self) -> Tuple[str, ...]:
        """The tiers a cell of this case runs on."""
        if self.spec.has_background:
            return ("fluid", "hybrid")
        return ("packet", "fluid", "hybrid")

    def fluid_observation(self) -> Dict[str, float]:
        """Means over the focal leecher classes of the fluid integration,
        weighted by peak population (seed-free)."""
        spec = self.spec
        result = FluidSwarm(spec.fluid_params()).run()
        leechers = [result.classes[c.name] for c in spec.peer_classes(focal=True)
                    if not c.seed]
        weight = left_sum(cr.peak_online for cr in leechers) or 1.0
        completion = left_sum(
            (cr.completion_time if cr.completion_time is not None
             else spec.max_time) * cr.peak_online
            for cr in leechers
        ) / weight
        goodput = left_sum(
            cr.mean_goodput * cr.peak_online for cr in leechers
        ) / weight
        return _observation(completion, goodput)

    def packet_observation(self, seed: int) -> Dict[str, float]:
        """Leecher means of the packet-level swarm at ``seed``."""
        max_time = self.spec.max_time
        sc = self.spec.packet_swarm(seed)
        sc.start_all()
        leechers = [n for n, h in sc.peers.items() if not h.client.complete]
        sc.run_until_complete(names=leechers, timeout=max_time)
        times: List[float] = []
        rates: List[float] = []
        for name in leechers:
            client = sc.peers[name].client
            t = client.completion_time
            if t is None:
                t = max_time
            times.append(t)
            if t > 0:
                rates.append(client.manager.bytes_completed / t)
        return _observation(
            left_sum(times) / len(times),
            left_sum(rates) / len(rates) if rates else 0.0,
        )

    def hybrid_observation(self, seed: int) -> Dict[str, float]:
        """What the focal hosts achieve on the hybrid backend."""
        result = run_hybrid(self.spec, seed=seed)
        return _observation(result.focal_completion_time(), result.focal_mean_goodput())


#: The standing set: three small swarms, then the regimes Figure 4/9
#: measure at tens of peers re-asked inside a 10^4-peer background.
CASES: Dict[str, Case] = {case.name: case for case in (
    Case("wired_small", "2 seeds + 6 wired leechers, pure capacity sharing",
         HybridSpec(focal_seeds=2, focal_wired=6)),
    Case("mobile_default",
         "2 seeds + 4 wired + 2 mobile default-client leechers "
         "handing off every 40 s (restart penalty)",
         HybridSpec(focal_seeds=2, focal_wired=4, focal_mobile=2,
                    handoff_interval=40.0)),
    Case("mobile_wp2p",
         "same swarm with wP2P mobile leechers (identity retention + LIHD)",
         HybridSpec(focal_seeds=2, focal_wired=4, focal_mobile=2, wp2p=True,
                    handoff_interval=40.0)),
    Case("embed_default",
         "2 default-client mobile focal hosts handing off every 40 s "
         "inside a 10^4-peer background",
         HybridSpec(focal_seeds=0, focal_mobile=2, background_seeds=2_000.0,
                    background_wired=8_000.0, handoff_interval=40.0)),
    Case("embed_wp2p", "same focal hosts on wP2P (identity retention + LIHD)",
         HybridSpec(focal_seeds=0, focal_mobile=2, wp2p=True,
                    background_seeds=2_000.0, background_wired=8_000.0,
                    handoff_interval=40.0)),
)}


def tier_verdict(
    name: str, rows: Mapping[str, Tuple[float, float]], tolerance: float,
) -> Verdict:
    """One gate over ``rows`` (label -> ``(reference, observed)``).

    Each row's relative error is ``|observed - reference| /
    max(|reference|, REL_ERROR_ATOL)``: a near-zero reference switches
    to an absolute floor instead of an infinite ratio.  The gate passes
    when every row is within ``tolerance`` (a NaN row, a case that lost
    every seed, fails).
    """
    observed: Dict[str, object] = {"tolerance": tolerance}
    ok = True
    for label, (reference, value) in rows.items():
        error = abs(value - reference) / max(abs(reference), REL_ERROR_ATOL)
        observed[label] = {"reference": reference, "observed": value, "rel_error": error}
        ok = ok and error <= tolerance
    return Verdict(name, ok, observed)


@scenario
class FigXXval(Scenario):
    """The fluid and hybrid tiers against their references, three gates."""

    name = "figx_xval"
    description = (
        "Tier cross-validation: fluid vs packet, all-focal hybrid vs "
        "packet, embedded hybrid vs fluid on matched swarms"
    )
    defaults = {"runs": 2, "base_seed": 11}
    figure = "Tier cross-validation"
    title = "Leecher completion time (s) and goodput (B/s) per tier on matched swarms"
    x_label = "Case"
    y_label = "completion time (s) / mean goodput (B/s)"
    paper_expectation = (
        "not a paper figure: the warranty of the tiers that extend the "
        "paper's findings to 10^2-10^5 peers"
    )
    notes = (
        "packet and hybrid average the seeds; the fluid integration is "
        "seed-free (its first seed only)"
    )
    reports = {"runs": "runs"}

    def grid(self, p):
        return [(name, tier) for name, case in CASES.items() for tier in case.tiers]

    def cells(self, p):
        # A fluid value does not depend on the seed: one cell per case.
        for key, seed in super().cells(p):
            if key[1] != "fluid" or seed == p["base_seed"]:
                yield key, seed

    def run_cell(self, key, seed, p):
        name, tier = key
        observe = getattr(CASES[name], f"{tier}_observation")
        return observe() if tier == "fluid" else observe(seed)

    def series(self, p, values):
        curves = []
        for metric, column in METRICS.items():
            for tier in ("packet", "fluid", "hybrid"):
                names = [n for n, case in CASES.items() if tier in case.tiers]
                curves.append(sweep(
                    f"{tier} {column}", names,
                    (collect(values, (name, tier)) for name in names),
                    field=metric, spread=False,
                ))
        return curves

    def check(self, run):
        def rows(embedded: bool, reference: str, observed: str):
            return {
                f"{case.name}/{metric}": tuple(
                    run.result.get(f"{tier} {column}").y_at(case.name)
                    for tier in (reference, observed)
                )
                for case in CASES.values() if case.spec.has_background == embedded
                for metric, column in METRICS.items()
            }

        return [
            tier_verdict("fluid_tracks_packet",
                         rows(False, "packet", "fluid"), DEFAULT_TOLERANCE),
            tier_verdict("all_focal_hybrid_equals_packet",
                         rows(False, "packet", "hybrid"),
                         EQUIVALENCE_TOLERANCE),
            tier_verdict("embedded_hybrid_tracks_fluid",
                         rows(True, "fluid", "hybrid"), DEFAULT_TOLERANCE),
        ]
