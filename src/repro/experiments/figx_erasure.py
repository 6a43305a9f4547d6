"""Erasure-coding sweep — swarm survival under chaos (``figx_erasure``).

Not a figure from the paper: a robustness experiment the paper's
availability story implies.  Content is *custody-seeded* — ``m``
custodians each hold an interleaved column of the piece space
(:meth:`~repro.bittorrent.swarm.SwarmScenario.custody_pieces`) and never
fetch (the ``hold`` selector), so no single peer is a full replica.  A
composed chaos schedule (``churn`` + ``handoff-storm`` presets) then
crashes peers and forces IP handoffs at increasing intensity while a
mixed wired/mobile leecher population races a completion deadline.

Three content variants run on the same seeds and the same byte volume:

* **replication** — plain pieces.  Any custodian outage makes its whole
  column unfetchable until it returns: the swarm's progress gates on
  every custodian's uptime.
* **coded** — ``group:k/n`` erasure groups (:mod:`repro.coding`) over a
  proportionally larger coded object (``n/k`` expansion, so the bytes a
  leecher must move are identical).  With ``n`` a multiple of ``m``,
  each custodian holds ``n/m`` coded pieces of every group — at the
  default ``4/6`` over three custodians, any *single* custodian outage
  still leaves ``k`` live pieces per group and the swarm keeps fetching
  at full rate.
* **ma** — replication content plus the paper's own §5.2.3 mitigation:
  mobile leechers run wP2P with the default
  :class:`~repro.wp2p.WP2PConfig` — mobility-aware fetching with every
  other wP2P component on, and the stock task restart delay where the
  other variants' mobile leechers wait 15 s.  Smarter piece
  *ordering* cannot manufacture availability, so it trails coding as
  custodian churn intensifies.

Expectation: leecher survival (fraction complete by the deadline) falls
with chaos intensity for every variant, and the coded swarm holds a
survival advantage over replication at every nonzero intensity — at the
pinned gate intensity replication misses the deadline outright while
the coded swarm still completes (the survival gate
:meth:`FigXErasure.check` states for both backends).

The fluid backend maps the same axes through the
:func:`repro.scale.model.content_rate_factor` coded-availability
surrogate: custodian flakiness becomes a seed-class duty cycle, and the
content mode turns that availability into a download-rate factor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import Series, sweep
from ..bittorrent import ClientConfig
from ..bittorrent.selection import make_selector
from ..bittorrent.swarm import SwarmScenario
from ..chaos import ChaosSchedule, preset_schedule
from ..coding import coded_file_size
from ..runner import Scenario, Verdict, collect, scenario
from ..scale import FluidParams, FluidSwarm, PeerClass
from ..summation import left_sum
from ..wp2p import WP2PClient

VARIANTS: Sequence[str] = ("replication", "coded", "ma")
CHAOS_INTENSITIES: Sequence[float] = (0.0, 8.0, 16.0)


#: The handoff-storm preset runs at this fraction of the churn
#: intensity.  Storm shots restart every mobile peer *simultaneously*, a
#: symmetric hit that censors mobile leechers in every content mode at
#: high intensity; quarter strength keeps storms a real disturbance
#: while leaving custodian churn — the availability threat the content
#: modes actually differ on — the dominant axis.
STORM_SCALE = 0.25


def erasure_schedule(intensity: float, horizon: float) -> ChaosSchedule:
    """The sweep's composed chaos: peer churn plus IP-handoff storms."""
    if intensity <= 0:
        return ChaosSchedule()
    schedule = preset_schedule("churn", intensity, horizon)
    if intensity * STORM_SCALE > 0:
        schedule = schedule + preset_schedule(
            "handoff-storm", intensity * STORM_SCALE, horizon
        )
    return schedule


def erasure_run(
    seed: int,
    variant: str,
    intensity: float,
    mobile_fraction: float,
    duration: float,
    horizon: float,
    source_kib: int = 1536,
    piece_length: int = 16_384,
    code_k: int = 4,
    code_n: int = 6,
    custodians: int = 3,
    leechers: int = 4,
) -> Dict[str, object]:
    """One packet cell: survival + completion of the leecher population.

    All variants move the same payload volume: the coded torrent is
    ``n/k`` larger on the wire but decodes after ``k`` of every ``n``
    pieces, i.e. after exactly ``source_kib`` worth of downloading.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (expected {VARIANTS})")
    source_size = source_kib * 1024
    coded = variant == "coded"
    sc = SwarmScenario(
        seed=seed,
        file_size=(
            coded_file_size(source_size, code_k, code_n) if coded else source_size
        ),
        piece_length=piece_length,
        tracker_interval=60.0,
        content=f"group:{code_k}/{code_n}" if coded else None,
    )
    # Custody seeds: interleaved piece columns, never fetching.  No peer
    # holds a full replica — availability is a property of the *set*.
    # A hold-custodian receives nothing, so tit-for-tat ranks every
    # leecher equally at zero; with the stock 3 unchoke slots the
    # optimistic rotation starves whoever needs this column most and
    # single pieces stall for minutes.  Widening the slots makes the
    # custodian serve its whole (tiny) peering set.
    for j in range(custodians):
        sc.add_wired_peer(
            f"cust{j}",
            initial_pieces=sc.custody_pieces(j, custodians),
            selector=make_selector("hold"),
            down_rate=1_000_000,
            up_rate=48_000,
            config=ClientConfig(unchoke_slots=8),
        )
    mobile_count = round(leechers * mobile_fraction)
    names: List[str] = []
    for i in range(leechers - mobile_count):
        names.append(f"leech{i}")
        sc.add_wired_peer(names[-1], down_rate=500_000, up_rate=8_000)
    for i in range(mobile_count):
        names.append(f"mob{i}")
        if variant == "ma":
            handle = sc.add_wireless_peer(
                names[-1], rate=64_000, client_factory=WP2PClient,
            )
        else:
            handle = sc.add_wireless_peer(
                names[-1], rate=64_000,
                config=ClientConfig(task_restart_delay=15.0),
            )
        sc.add_mobility(handle, interval=90.0, downtime=1.0)
    # An ambient runner-level preset (--chaos) takes precedence; the
    # sweep's composed churn + handoff-storm schedule applies otherwise.
    if sc.chaos is None:
        sc.add_chaos(erasure_schedule(intensity, horizon))
    sc.start_all()
    sc.run_until_complete(names=names, timeout=duration)
    completions = [sc[n].client.completion_time for n in names]
    survivors = left_sum(1 for t in completions if t is not None)
    recovery = sc.chaos.recovery if sc.chaos is not None else None
    return {
        "survival": survivors / max(len(names), 1),
        "completion": (
            max(t for t in completions if t is not None)
            if survivors == len(names)
            else None
        ),
        "mean_completion": left_sum(
            t if t is not None else duration for t in completions
        ) / max(len(names), 1),
        "faults": float(sc.chaos.faults_injected if sc.chaos is not None else 0),
        "mean_mttr": recovery.mean_mttr() if recovery is not None else None,
    }


def erasure_fluid_cell(
    variant: str,
    intensity: float,
    mobile_fraction: float,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One fluid cell: the same axes through the coded surrogate.

    Chaos becomes duty cycles: churn gives the custody-seed class a
    handoff-style down/up cycle whose availability shrinks with
    intensity, and handoff storms shorten the mobile class's interval.
    The content mode then maps seed availability to a download-rate
    factor via :func:`repro.scale.model.content_rate_factor`.
    """
    duration = float(p["duration"])
    leechers = float(p["leechers"])
    mobile = round(leechers * mobile_fraction)
    wired = leechers - mobile
    seed_handoff = None
    if intensity > 0:
        # Custodian unavailability odds grow with sqrt(intensity):
        # the packet schedule staggers churn victims and runs storms at
        # STORM_SCALE, so chaos compounds sub-linearly.  The fluid tier
        # charges holder darkness twice (supply loss *and* the content
        # rate factor), so the duty cycle itself must stay gentle.
        availability = 1.0 / (1.0 + 0.19 * intensity ** 0.5)
        # Interval giving that duty cycle at the preset's 8s downtime.
        seed_handoff = 8.0 * availability / (1.0 - availability)
    classes = [
        PeerClass(
            "custody", float(p["custodians"]), 48_000.0, 1_000_000.0,
            seed=True, mobile=intensity > 0,
            handoff_interval=seed_handoff, handoff_downtime=8.0,
            reconnect_cost=0.0, wp2p=True,
        ),
    ]
    if wired > 0:
        classes.append(
            PeerClass("wired", float(wired), 8_000.0, 500_000.0)
        )
    if mobile > 0:
        classes.append(PeerClass(
            "mobile", float(mobile), 12_000.0, 64_000.0,
            mobile=True, wp2p=(variant == "ma"), wireless_shared=True,
            handoff_interval=max(10.0, 90.0 / (1.0 + intensity)),
            handoff_downtime=1.0,
            selection="inorder" if variant == "ma" else "rarest",
        ))
    params = FluidParams(
        file_size=int(p["source_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        classes=tuple(classes),
        max_time=duration,
        content_mode="group" if variant == "coded" else "replication",
        code_k=int(p["code_k"]) if variant == "coded" else 1,
        code_n=int(p["code_n"]) if variant == "coded" else 1,
    )
    result = FluidSwarm(params).run()
    completion = result.leecher_completion_time()
    return {
        "survival": 1.0 if completion is not None else 0.0,
        "completion": completion,
        "mean_completion": completion if completion is not None else duration,
        "faults": 0.0,
        "mean_mttr": None,
    }


@scenario
class FigXErasure(Scenario):
    """Swarm survival & completion vs chaos intensity, per content mode."""

    name = "figx_erasure"
    description = (
        "Erasure-coding sweep: custody-seeded replication vs k-of-n coding "
        "vs mobility-aware fetching under churn + handoff storms"
    )
    backends = ("packet", "fluid")
    defaults = {
        "variants": list(VARIANTS),
        "intensities": list(CHAOS_INTENSITIES),
        "mobile_fractions": [0.5],
        "runs": 2,
        "duration": 210.0,
        "horizon": 240.0,
        "source_kib": 1536,
        "piece_length": 16_384,
        "code_k": 4,
        "code_n": 6,
        "custodians": 3,
        "leechers": 4,
        "base_seed": 1300,
    }

    figure = "Erasure sweep"
    title = ("Leecher survival vs chaos intensity "
             "({mobile_fractions[0]:.0%} mobile, churn + handoff storms)")
    x_label = "Chaos intensity"
    y_label = "Survival (fraction complete by deadline)"
    paper_expectation = (
        "survival degrades with chaos intensity for every content "
        "mode; k-of-n coding over custody columns survives custodian "
        "outages that stall replication outright, so the coded swarm "
        "keeps a survival advantage at every nonzero intensity and "
        "still completes at the gate intensity where replication "
        "misses the deadline"
    )
    reports = {"runs": "runs", "duration_s": "duration", "custodians": "custodians"}

    def grid(self, p):
        return [
            (variant, intensity, fraction)
            for variant in p["variants"]
            for intensity in p["intensities"]
            for fraction in p["mobile_fractions"]
        ]

    def run_cell(self, key, seed, p):
        variant, intensity, fraction = key
        return erasure_run(
            seed,
            variant=variant,
            intensity=float(intensity),
            mobile_fraction=float(fraction),
            duration=float(p["duration"]),
            horizon=float(p["horizon"]),
            source_kib=int(p["source_kib"]),
            piece_length=int(p["piece_length"]),
            code_k=int(p["code_k"]),
            code_n=int(p["code_n"]),
            custodians=int(p["custodians"]),
            leechers=int(p["leechers"]),
        )

    def run_cell_fluid(self, key, seed, p):
        variant, intensity, fraction = key
        return erasure_fluid_cell(
            variant, float(intensity), float(fraction), dict(p)
        )

    def assemble(self, p, values, failures):
        intensities = [float(i) for i in p["intensities"]]
        fractions = [float(f) for f in p["mobile_fractions"]]
        variants = [str(v) for v in p["variants"]]
        labels = {
            "replication": "Replication (custody-seeded)",
            "coded": f"Erasure {p['code_k']}-of-{p['code_n']}",
            "ma": "Replication + MA fetching",
        }

        def curve(variant: str, field: str) -> Series:
            return sweep(labels.get(variant, variant), intensities,
                         (collect(values, (variant, i, fractions[0])) for i in intensities),
                         field=field, spread=False)

        series = [curve(v, "survival") for v in variants]
        survival = {v: s.y for v, s in zip(variants, series)}
        gate: Dict[str, object] = {}
        if "replication" in survival and "coded" in survival:
            gate = {
                "intensities": intensities,
                "replication_survival": survival["replication"],
                "coded_survival": survival["coded"],
                "advantage": [
                    c - r for c, r in zip(survival["coded"], survival["replication"])
                ],
                "gate_intensity": intensities[-1],
                "replication_at_gate": survival["replication"][-1],
                "coded_at_gate": survival["coded"][-1],
            }
        completion = " | ".join(
            f"{v}: " + ", ".join(f"{t:.0f}" for t in curve(v, "mean_completion").y)
            for v in variants
        )
        return self.result(
            p, series,
            {"variants": variants, "intensities": intensities,
             "mobile_fractions": fractions, "code": f"{p['code_k']}/{p['code_n']}",
             "survival": survival, "gate": gate},
            notes="mean completion (s, censored at deadline) " + completion,
        )

    def check(self, run):
        gate = run.result.parameters["gate"]
        if not gate:  # the grid lacks the replication or the coded variant
            return [Verdict("survival_gate_measured", False)]
        adv = gate["advantage"]
        at_gate = {key: gate[key] for key in
                   ("gate_intensity", "replication_at_gate", "coded_at_gate")}
        rep_at, coded_at = gate["replication_at_gate"], gate["coded_at_gate"]
        verdicts = [
            Verdict("coded_has_no_edge_without_chaos", adv[0] == 0.0, {"advantage": adv}),
            Verdict("survival_advantage_monotone",
                    all(b >= a for a, b in zip(adv, adv[1:])), {"advantage": adv}),
        ]
        if run.spec.backend == "fluid":
            verdicts.append(Verdict("coded_beats_replication_at_gate",
                                    coded_at > rep_at, at_gate))
        else:
            verdicts.append(Verdict("replication_fails_at_gate", rep_at < 1.0, at_gate))
            verdicts.append(Verdict("coded_survives_at_gate", coded_at == 1.0, at_gate))
        return verdicts
