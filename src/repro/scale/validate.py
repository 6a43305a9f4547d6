"""Cross-validation of the fluid tier against the packet-level simulator.

The fluid engine is an approximation; this module is its warranty card.
A :class:`MatchedScenario` describes one small swarm **twice** — as a
real :class:`~repro.bittorrent.swarm.SwarmScenario` (hosts, links, TCP,
the works) and as the equivalent :class:`~repro.scale.FluidParams`
class decomposition — and :func:`cross_validate` runs both and asserts
the fluid model tracks packet-level *completion time* and *mean
goodput* within a stated relative tolerance (default
:data:`DEFAULT_TOLERANCE`).

The matched set deliberately spans the axes the fluid model claims to
capture: an all-wired swarm (pure capacity sharing), a swarm with
mobile default-client leechers (handoff duty cycles + restart penalty +
shared wireless airtime), and the same swarm on wP2P (identity
retention + LIHD throttling).  ``scripts/validate_scale.py`` and the CI
scale job run this continuously, so calibration drift — the
``efficiency`` / ``startup_delay`` constants going stale against an
improved packet simulator — fails loudly instead of silently skewing
every large-N result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..summation import left_sum
from ..wp2p import WP2PClient
from .fluid import FluidSwarm
from .hybrid import HybridSpec, run_hybrid
from .model import FluidParams, PeerClass

#: Maximum relative error at which the fluid tier is considered anchored.
DEFAULT_TOLERANCE = 0.15

#: Packet-simulator seeds averaged per scenario (smooths protocol noise).
DEFAULT_SEEDS: Tuple[int, ...] = (11, 12)

#: Tolerance for the hybrid all-focal equivalence gate: with an empty
#: background the hybrid builder constructs the matched packet swarm
#: event for event, so the agreement must be exact, not approximate.
EQUIVALENCE_TOLERANCE = 1e-9

#: Reference magnitude below which :attr:`ValidationRow.rel_error`
#: switches to an absolute comparison (both metrics — seconds and
#: bytes/second — are far above 1.0 whenever they are meaningful).
REL_ERROR_ATOL = 1.0


@dataclass(frozen=True)
class Observation:
    """What one backend measured for one matched scenario."""

    completion_time: float
    mean_goodput: float


@dataclass(frozen=True)
class MatchedScenario:
    """One swarm described for both backends.

    ``seeds``/``wired``/``mobile`` are peer counts; rates are
    bytes/second.  The fluid decomposition and the packet topology are
    generated from the *same* fields, so the two runs cannot drift
    apart structurally — only the dynamics are approximated.
    """

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

    def fluid_observation(self) -> Observation:
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
        return Observation(completion_time=completion, mean_goodput=goodput)

    def packet_observation(self, seed: int) -> Observation:
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
        # Lazy: repro.experiments itself registers fluid-backed scenarios
        # built on this package, so a module-level import would cycle.
        from ..experiments.fig9_wp2p import rr_only_config

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
        return Observation(
            completion_time=left_sum(times) / len(times),
            mean_goodput=left_sum(rates) / len(rates) if rates else 0.0,
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

    def hybrid_observation(self, seed: int) -> Observation:
        """Run this swarm all-focal on the hybrid backend.

        With no background the hybrid builder must construct the packet
        swarm event for event, so this is expected to equal
        :meth:`packet_observation` exactly (the
        :data:`EQUIVALENCE_TOLERANCE` gate)."""
        result = run_hybrid(self.hybrid_spec(), seed=seed)
        return Observation(
            completion_time=result.focal_completion_time(),
            mean_goodput=result.focal_mean_goodput(),
        )


#: The standing matched set run by ``scripts/validate_scale.py`` and CI.
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
class ValidationRow:
    """One (scenario, metric) comparison between the two backends."""

    scenario: str
    metric: str
    packet: float
    fluid: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        # Near-zero references switch to an absolute-tolerance floor:
        # a 0.0 packet reference with a nonzero fluid value is a real
        # miss, but an infinite ratio poisons table()/--json output
        # (JSON has no Infinity) without saying anything more than
        # "the absolute difference is the whole story".
        return abs(self.fluid - self.packet) / max(abs(self.packet),
                                                   REL_ERROR_ATOL)

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.tolerance

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "metric": self.metric,
            "packet": self.packet,
            "fluid": self.fluid,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


@dataclass
class ValidationReport:
    """All comparisons of one cross-validation run."""

    rows: List[ValidationRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "rows": [row.to_jsonable() for row in self.rows],
        }

    def table(self, labels: Tuple[str, str] = ("packet", "fluid")) -> str:
        """Fixed-width report; ``labels`` renames the two value columns
        (the hybrid gate compares *reference* vs *hybrid* instead of
        packet vs fluid, same row structure)."""
        reference, observed = labels
        header = (f"{'scenario':<22}{'metric':<18}{reference:>12}"
                  f"{observed:>12}{'rel err':>10}  verdict")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.scenario:<22}{row.metric:<18}{row.packet:>12.2f}"
                f"{row.fluid:>12.2f}{row.rel_error:>9.1%}  "
                f"{'ok' if row.ok else 'FAIL'}"
            )
        return "\n".join(lines)


def cross_validate(
    scenarios: Optional[Sequence[MatchedScenario]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> ValidationReport:
    """Run every matched scenario on both backends and compare.

    Packet observations are averaged over ``seeds`` (the fluid run is
    deterministic and needs no averaging).  Returns a report whose
    ``passed`` flag is the anchoring verdict.
    """
    if scenarios is None:
        scenarios = MATCHED_SCENARIOS
    if not seeds:
        raise ValueError("need at least one packet-simulator seed")
    report = ValidationReport()
    for ms in scenarios:
        packet_obs = [ms.packet_observation(seed) for seed in seeds]
        packet = Observation(
            completion_time=(left_sum(o.completion_time for o in packet_obs)
                             / len(packet_obs)),
            mean_goodput=(left_sum(o.mean_goodput for o in packet_obs)
                          / len(packet_obs)),
        )
        fluid = ms.fluid_observation()
        report.rows.append(ValidationRow(
            scenario=ms.name, metric="completion_time",
            packet=packet.completion_time, fluid=fluid.completion_time,
            tolerance=tolerance,
        ))
        report.rows.append(ValidationRow(
            scenario=ms.name, metric="mean_goodput",
            packet=packet.mean_goodput, fluid=fluid.mean_goodput,
            tolerance=tolerance,
        ))
    return report


# ----------------------------------------------------------------------
# Hybrid-backend validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HybridEmbedding:
    """Focal packet hosts embedded in a large fluid background.

    The reference is the *pure-fluid* prediction for the focal hosts,
    obtained by folding them into the background integration as one
    more peer class; the observation is what the packet-level focal
    hosts actually achieve through the coupling facade.  Agreement
    within :data:`DEFAULT_TOLERANCE` is the hybrid tier's warranty that
    the boundary-flow translation neither starves nor over-serves the
    focal hosts relative to the calibrated mean-field dynamics.
    """

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

    def fluid_reference(self) -> Observation:
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
        result = FluidSwarm(params).run()
        cr = result.classes["focal_mobile"]
        completion = (cr.completion_time if cr.completion_time is not None
                      else self.max_time)
        return Observation(completion_time=completion,
                           mean_goodput=cr.mean_goodput)

    def hybrid_observation(self, seed: int) -> Observation:
        result = run_hybrid(self.spec(), seed=seed)
        return Observation(
            completion_time=result.focal_completion_time(),
            mean_goodput=result.focal_mean_goodput(),
        )


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


def _mean_observation(observations: Sequence[Observation]) -> Observation:
    return Observation(
        completion_time=(left_sum(o.completion_time for o in observations)
                         / len(observations)),
        mean_goodput=(left_sum(o.mean_goodput for o in observations)
                      / len(observations)),
    )


def hybrid_cross_validate(
    tolerance: float = DEFAULT_TOLERANCE,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    equivalence: Optional[Sequence[MatchedScenario]] = None,
    embeddings: Optional[Sequence[HybridEmbedding]] = None,
) -> ValidationReport:
    """The hybrid backend's two-sided warranty card.

    * **equivalence rows** — every matched scenario run all-focal on
      the hybrid backend against the pure packet backend, gated at
      :data:`EQUIVALENCE_TOLERANCE` (exact by construction);
    * **embedding rows** — focal hosts inside a large background
      against the pure-fluid class prediction, gated at ``tolerance``.

    Rows reuse the :class:`ValidationRow` structure with ``packet``
    holding the reference value and ``fluid`` the hybrid observation
    (render with ``report.table(labels=("reference", "hybrid"))``).
    """
    if equivalence is None:
        equivalence = MATCHED_SCENARIOS
    if embeddings is None:
        embeddings = HYBRID_EMBEDDINGS
    if not seeds:
        raise ValueError("need at least one packet-simulator seed")
    report = ValidationReport()
    for ms in equivalence:
        packet = _mean_observation([ms.packet_observation(s) for s in seeds])
        hybrid = _mean_observation([ms.hybrid_observation(s) for s in seeds])
        for metric, ref, obs in (
            ("completion_time", packet.completion_time, hybrid.completion_time),
            ("mean_goodput", packet.mean_goodput, hybrid.mean_goodput),
        ):
            report.rows.append(ValidationRow(
                scenario=f"focal:{ms.name}", metric=metric,
                packet=ref, fluid=obs, tolerance=EQUIVALENCE_TOLERANCE,
            ))
    for emb in embeddings:
        reference = emb.fluid_reference()
        hybrid = _mean_observation([emb.hybrid_observation(s) for s in seeds])
        for metric, ref, obs in (
            ("completion_time", reference.completion_time,
             hybrid.completion_time),
            ("mean_goodput", reference.mean_goodput, hybrid.mean_goodput),
        ):
            report.rows.append(ValidationRow(
                scenario=emb.name, metric=metric,
                packet=ref, fluid=obs, tolerance=tolerance,
            ))
    return report
