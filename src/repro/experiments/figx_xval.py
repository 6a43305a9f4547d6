"""Tier cross-validation — fluid and hybrid against their references (``figx_xval``).

Not a figure from the paper: the warranty of the tiers that carry the
paper's mobile-host findings to 10^2–10^5 peers (``figx_scale`` on the
fluid backend, ``figx_hybrid`` on the hybrid one).  A
:class:`MatchedScenario` describes one small swarm **twice** — as a real
:class:`~repro.bittorrent.swarm.SwarmScenario` (hosts, links, TCP, the
works) and as the equivalent :class:`~repro.scale.FluidParams` class
decomposition — and a :class:`HybridEmbedding` puts focal packet hosts
inside a 10^4-peer fluid background.  Every cell measures leecher
*completion time* and *mean goodput* on one tier, and :meth:`FigXXval.check`
states the three gates:

* the fluid tier tracks packet within :data:`DEFAULT_TOLERANCE`;
* an all-focal (zero-background) hybrid run reproduces packet exactly
  (:data:`EQUIVALENCE_TOLERANCE`): the hybrid builder constructs the
  matched packet swarm event for event;
* embedded focal hosts track the pure-fluid prediction for them within
  :data:`DEFAULT_TOLERANCE`, so the coupling facade neither starves nor
  over-serves them.

The matched set spans the axes the fluid model claims to capture: an
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
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis import sweep
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..runner import Scenario, Verdict, collect, scenario
from ..scale import FluidParams, FluidSwarm, HybridSpec, PeerClass, run_hybrid
from ..summation import left_sum
from ..wp2p import WP2PClient
from .fig9_wp2p import rr_only_config

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


def _hybrid_observation(spec: HybridSpec, seed: int) -> Dict[str, float]:
    result = run_hybrid(spec, seed=seed)
    return _observation(result.focal_completion_time(), result.focal_mean_goodput())


@dataclass(frozen=True)
class MatchedScenario:
    """One swarm described for the packet, fluid and hybrid tiers.

    ``seeds``/``wired``/``mobile`` are peer counts; rates are
    bytes/second.  The fluid decomposition and the packet topology are
    generated from the *same* fields, so the runs cannot drift apart
    structurally — only the dynamics are approximated.
    """

    #: The tiers a cell of this case runs on.
    tiers: ClassVar[Tuple[str, ...]] = ("packet", "fluid", "hybrid")

    name: str
    description: str
    seeds: int
    wired: int
    mobile: int = 0
    wp2p: bool = False
    file_size: int = 1 << 20
    piece_length: int = 1 << 16
    seed_up_rate: float = 64_000.0
    wired_up_rate: float = 32_000.0
    wired_down_rate: float = 400_000.0
    mobile_up_rate: float = 16_000.0
    wireless_rate: float = 80_000.0
    handoff_interval: Optional[float] = None
    handoff_downtime: float = 1.0
    restart_delay: float = 15.0
    max_time: float = 3_600.0

    def fluid_params(self) -> FluidParams:
        classes: List[PeerClass] = [
            PeerClass("seeds", float(self.seeds), self.seed_up_rate,
                      1_000_000.0, seed=True),
        ]
        if self.wired:
            classes.append(PeerClass(
                "wired", float(self.wired), self.wired_up_rate,
                self.wired_down_rate,
            ))
        if self.mobile:
            classes.append(PeerClass(
                "mobile", float(self.mobile), self.mobile_up_rate,
                self.wireless_rate, mobile=True, wp2p=self.wp2p,
                wireless_shared=True,
                handoff_interval=self.handoff_interval,
                handoff_downtime=self.handoff_downtime,
                restart_delay=self.restart_delay,
                selection="inorder" if self.wp2p else "rarest",
            ))
        return FluidParams(
            file_size=self.file_size,
            piece_length=self.piece_length,
            classes=tuple(classes),
            max_time=self.max_time,
        )

    def fluid_observation(self) -> Dict[str, float]:
        """Leecher means of the fluid integration (seed-free)."""
        result = FluidSwarm(self.fluid_params()).run()
        leechers = [cr for cr in result.classes.values() if not cr.seed]
        weight = left_sum(cr.peak_online for cr in leechers) or 1.0
        completion = left_sum(
            (cr.completion_time if cr.completion_time is not None
             else self.max_time) * cr.peak_online
            for cr in leechers
        ) / weight
        goodput = left_sum(
            cr.mean_goodput * cr.peak_online for cr in leechers
        ) / weight
        return _observation(completion, goodput)

    def packet_observation(self, seed: int) -> Dict[str, float]:
        """Leecher means of the packet-level swarm at ``seed``."""
        sc = SwarmScenario(
            seed=seed,
            file_size=self.file_size,
            piece_length=self.piece_length,
            tracker_interval=60.0,
        )
        for i in range(self.seeds):
            sc.add_wired_peer(f"s{i}", complete=True,
                              down_rate=1_000_000, up_rate=self.seed_up_rate)
        for i in range(self.wired):
            sc.add_wired_peer(f"w{i}", down_rate=self.wired_down_rate,
                              up_rate=self.wired_up_rate)
        for i in range(self.mobile):
            if self.wp2p:
                handle = sc.add_wireless_peer(
                    f"m{i}", rate=self.wireless_rate,
                    config=rr_only_config(), client_factory=WP2PClient,
                )
            else:
                handle = sc.add_wireless_peer(
                    f"m{i}", rate=self.wireless_rate,
                    config=ClientConfig(task_restart_delay=self.restart_delay),
                )
            if self.handoff_interval is not None:
                sc.add_mobility(handle, interval=self.handoff_interval,
                                downtime=self.handoff_downtime)
        sc.start_all()
        leechers = [n for n, h in sc.peers.items() if not h.client.complete]
        sc.run_until_complete(names=leechers, timeout=self.max_time)
        times: List[float] = []
        rates: List[float] = []
        for name in leechers:
            client = sc.peers[name].client
            t = client.completion_time
            if t is None:
                t = self.max_time
            times.append(t)
            if t > 0:
                rates.append(client.manager.bytes_completed / t)
        return _observation(
            left_sum(times) / len(times),
            left_sum(rates) / len(rates) if rates else 0.0,
        )

    def hybrid_spec(self) -> HybridSpec:
        """This swarm as an all-focal (zero-background) hybrid spec."""
        return HybridSpec(
            focal_seeds=self.seeds,
            focal_wired=self.wired,
            focal_mobile=self.mobile,
            wp2p=self.wp2p,
            file_size=self.file_size,
            piece_length=self.piece_length,
            seed_up_rate=self.seed_up_rate,
            wired_up_rate=self.wired_up_rate,
            wired_down_rate=self.wired_down_rate,
            mobile_up_rate=self.mobile_up_rate,
            wireless_rate=self.wireless_rate,
            handoff_interval=self.handoff_interval,
            handoff_downtime=self.handoff_downtime,
            restart_delay=self.restart_delay,
            max_time=self.max_time,
        )

    def hybrid_observation(self, seed: int) -> Dict[str, float]:
        """This swarm all-focal on the hybrid backend: expected to equal
        :meth:`packet_observation` exactly."""
        return _hybrid_observation(self.hybrid_spec(), seed)


#: The standing matched set.
MATCHED_SCENARIOS: Tuple[MatchedScenario, ...] = (
    MatchedScenario(
        name="wired_small",
        description="2 seeds + 6 wired leechers, pure capacity sharing",
        seeds=2, wired=6,
    ),
    MatchedScenario(
        name="mobile_default",
        description=("2 seeds + 4 wired + 2 mobile default-client leechers "
                     "handing off every 40 s (restart penalty)"),
        seeds=2, wired=4, mobile=2, handoff_interval=40.0,
    ),
    MatchedScenario(
        name="mobile_wp2p",
        description=("same swarm with wP2P mobile leechers "
                     "(identity retention + LIHD)"),
        seeds=2, wired=4, mobile=2, wp2p=True, handoff_interval=40.0,
    ),
)


@dataclass(frozen=True)
class HybridEmbedding:
    """Focal packet hosts embedded in a large fluid background.

    The reference is the *pure-fluid* prediction for the focal hosts,
    obtained by folding them into the background integration as one
    more peer class; the observation is what the packet-level focal
    hosts actually achieve through the coupling facade.
    """

    #: The tiers a cell of this case runs on.
    tiers: ClassVar[Tuple[str, ...]] = ("fluid", "hybrid")

    name: str
    description: str
    focal_mobile: int = 2
    wp2p: bool = False
    background_seeds: float = 2_000.0
    background_wired: float = 8_000.0
    handoff_interval: Optional[float] = 40.0
    file_size: int = 1 << 20
    piece_length: int = 1 << 16
    max_time: float = 3_600.0

    def spec(self) -> HybridSpec:
        return HybridSpec(
            focal_seeds=0,
            focal_mobile=self.focal_mobile,
            wp2p=self.wp2p,
            background_seeds=self.background_seeds,
            background_wired=self.background_wired,
            handoff_interval=self.handoff_interval,
            file_size=self.file_size,
            piece_length=self.piece_length,
            max_time=self.max_time,
        )

    def fluid_observation(self) -> Dict[str, float]:
        """Pure-fluid prediction with the focal hosts as a peer class."""
        spec = self.spec()
        classes = list(spec.background_params().classes)
        classes.append(PeerClass(
            "focal_mobile", float(self.focal_mobile),
            spec.mobile_up_rate, spec.wireless_rate,
            mobile=True, wp2p=self.wp2p, wireless_shared=True,
            handoff_interval=spec.handoff_interval,
            handoff_downtime=spec.handoff_downtime,
            restart_delay=spec.restart_delay,
            selection="inorder" if self.wp2p else "rarest",
        ))
        params = FluidParams(
            file_size=self.file_size,
            piece_length=self.piece_length,
            classes=tuple(classes),
            max_time=self.max_time,
        )
        cr = FluidSwarm(params).run().classes["focal_mobile"]
        completion = (cr.completion_time if cr.completion_time is not None
                      else self.max_time)
        return _observation(completion, cr.mean_goodput)

    def hybrid_observation(self, seed: int) -> Dict[str, float]:
        """What the focal hosts achieve through the coupling facade."""
        return _hybrid_observation(self.spec(), seed)


#: The standing embedding set: 10^4-peer background, default vs wP2P
#: focal mobiles — the regimes Figure 4/9 measure at tens of peers,
#: re-asked at fluid scale.
HYBRID_EMBEDDINGS: Tuple[HybridEmbedding, ...] = (
    HybridEmbedding(
        name="embed_default",
        description=("2 default-client mobile focal hosts handing off "
                     "every 40 s inside a 10^4-peer background"),
    ),
    HybridEmbedding(
        name="embed_wp2p",
        description="same focal hosts on wP2P (identity retention + LIHD)",
        wp2p=True,
    ),
)

CASES = {case.name: case for case in MATCHED_SCENARIOS + HYBRID_EMBEDDINGS}


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
        def rows(cases: Sequence, reference: str, observed: str):
            return {
                f"{case.name}/{metric}": tuple(
                    run.result.get(f"{tier} {column}").y_at(case.name)
                    for tier in (reference, observed)
                )
                for case in cases
                for metric, column in METRICS.items()
            }

        return [
            tier_verdict("fluid_tracks_packet",
                         rows(MATCHED_SCENARIOS, "packet", "fluid"), DEFAULT_TOLERANCE),
            tier_verdict("all_focal_hybrid_equals_packet",
                         rows(MATCHED_SCENARIOS, "packet", "hybrid"),
                         EQUIVALENCE_TOLERANCE),
            tier_verdict("embedded_hybrid_tracks_fluid",
                         rows(HYBRID_EMBEDDINGS, "fluid", "hybrid"), DEFAULT_TOLERANCE),
        ]
