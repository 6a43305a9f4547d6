"""Strategy arena — strategy mixes × mobile fraction × wP2P (``figx_arena``).

Not a figure from the paper: the tournament the paper could not run.
Its incentive results (fig3, and wP2P's identity retention) assume
every peer plays the reference tit-for-tat client; the arena drops
free-riders and BitTyrant-style exploiters (:mod:`repro.strategy`)
into the same small swarms the paper measures — with and without
mobile hosts, under the deployed-client default and under wP2P — and
reports per-strategy completion time, goodput and upload contributed.

Each cell is one swarm: one seed with scarce upload capacity (so
peer-to-peer reciprocation, not seed charity, dominates service) plus
``leechers`` leechers whose strategies follow the named mix
(deterministic largest-deficit assignment via
:class:`~repro.strategy.MixAssigner`).  Exploiters stay wired;
``mobile_fraction`` of the *compliant* leechers sit behind a shared
wireless cell with periodic IP handoffs — the population the paper
shows is most fragile, and the one the exploiters get to prey on.
The ``wp2p`` variant gives those mobile hosts identity retention +
role reversal (IA), so their tit-for-tat credit survives handoffs no
matter which choking policy their neighbours run.

Expectations: in all-wired swarms the free-rider pays — it finishes
slower than the compliant peers it leeches from (tit-for-tat working
as designed); as the mobile-host fraction rises the penalty shrinks
(mobility churn resets reciprocation state, so incentives are
neutralised — the arena restatement of §3.4); the robust ``propshare``
choker taxes the tyrant, whose service becomes proportional to its
deliberately minimal contribution (it must upload more, and its
download-per-upload efficiency falls); and wP2P identity retention
speeds the compliant mobile peers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis import Series
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..runner import Scenario, Verdict, collect, scenario
from ..strategy import MixAssigner, get_strategy
from ..summation import left_sum
from ..wp2p import WP2PClient, WP2PConfig
from .base import random_piece_subset

#: The named tournament brackets.  Fractions are over the leecher
#: population; the remainder runs the listed compliant strategy.
ARENA_MIXES: Dict[str, Dict[str, float]] = {
    "clean":             {"reference": 1.0},
    "freeriders":        {"reference": 0.75, "freerider": 0.25},
    "tyrants":           {"reference": 0.75, "tyrant": 0.25},
    "robust-freeriders": {"propshare": 0.75, "freerider": 0.25},
    "robust-tyrants":    {"propshare": 0.75, "tyrant": 0.25},
}

#: Strategies counted as exploiters when splitting arena populations.
EXPLOITERS = ("freerider", "tyrant")


def _mobile_flags(compliant: int, mobile_fraction: float) -> List[bool]:
    """Evenly-spread mobility flags over the compliant leechers."""
    quota = round(compliant * mobile_fraction)
    return [
        (i + 1) * quota // compliant > i * quota // compliant
        for i in range(compliant)
    ]


def arena_run(
    seed: int,
    weights: Mapping[str, float],
    mobile_fraction: float,
    wp2p: bool,
    p: Mapping[str, object],
) -> Dict[str, object]:
    """One tournament cell: a mixed-strategy swarm, per-peer outcomes.

    Uses fig3a's reciprocation-dominated setup: every leecher starts
    with a random half of the pieces and offers a single ranked unchoke
    slot, so what a peer is missing lives at its competitors and service
    must be earned by uploading.  (A fresh-start swarm is
    availability-limited instead — everyone crawls at the seed's piece
    injection rate and no choking policy can differentiate peers.)  A
    slow backfill seed keeps the few pieces no leecher drew reachable
    without handing out meaningful free capacity.
    """
    duration = float(p["duration"])
    sc = SwarmScenario(
        seed=seed,
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        tracker_interval=60.0,
    )
    piece_rng = random.Random(seed * 977 + 13)
    n_pieces = sc.torrent.num_pieces
    # Leechers leave when done (keep_seeding=False): exploiters must be
    # served while reciprocation still matters, not by post-completion
    # charity — finished reference peers turning into free seeds would
    # wash the tit-for-tat penalty out of the completion times.
    choking = dict(
        unchoke_slots=int(p["unchoke_slots"]),
        optimistic_every=int(p["optimistic_every"]),
        choke_interval=float(p["choke_interval"]),
        keep_seeding=False,
    )
    # The backfill seed drips across a couple of slots; seeds rank by
    # receive rate, not reciprocity, so a fat seed would mask the
    # incentive signal the arena exists to measure.
    sc.add_wired_peer(
        "seed0", complete=True,
        down_rate=1_000_000, up_rate=float(p["seed_up_rate"]),
        config=ClientConfig(
            unchoke_slots=int(p["seed_slots"]),
            choke_interval=float(p["choke_interval"]),
        ),
    )

    leechers = int(p["leechers"])
    assigner = MixAssigner({"all": dict(weights)})
    order = [assigner.assign("all") for _ in range(leechers)]
    for name in set(order):
        get_strategy(name)  # unknown names fail before any peer is built
    # Decorrelate strategy from arrival order: the tracker hands small
    # swarms its join-order peer list, and zero-rank ties resolve in list
    # order, so the earliest-joined leechers hold a standing claim on
    # spare unchoke slots.  The assigner's quota walk is deterministic —
    # without a shuffle the same strategy would sit in the favoured slot
    # in every cell of the sweep.
    piece_rng.shuffle(order)

    compliant = [i for i, s in enumerate(order) if s not in EXPLOITERS]
    flags = _mobile_flags(len(compliant), mobile_fraction) if compliant else []
    mobile = {idx for idx, flag in zip(compliant, flags) if flag}

    peers: List[Dict[str, object]] = []
    for i, strategy in enumerate(order):
        name = f"l{i}"
        have = random_piece_subset(
            piece_rng, n_pieces, float(p["initial_fraction"])
        )
        if i in mobile:
            if wp2p:
                handle = sc.add_wireless_peer(
                    name, rate=float(p["wireless_rate"]),
                    config=WP2PConfig(
                        am_enabled=False, mobility_aware_fetching=False,
                        identity_retention=True, role_reversal=True,
                        **choking,
                    ),
                    client_factory=WP2PClient, strategy=strategy,
                    initial_pieces=have,
                )
            else:
                handle = sc.add_wireless_peer(
                    name, rate=float(p["wireless_rate"]),
                    config=ClientConfig(
                        task_restart_delay=float(p["restart_delay"]),
                        **choking,
                    ),
                    strategy=strategy, initial_pieces=have,
                )
            sc.add_mobility(
                handle, interval=float(p["handoff_interval"]),
                downtime=float(p["handoff_downtime"]),
            )
        else:
            sc.add_wired_peer(
                name, down_rate=float(p["wired_down_rate"]),
                up_rate=float(p["wired_up_rate"]),
                config=ClientConfig(**choking), strategy=strategy,
                initial_pieces=have,
            )
        peers.append({"name": name, "strategy": strategy, "mobile": i in mobile})

    sc.start_all()
    sc.run_until_complete(
        names=[str(peer["name"]) for peer in peers], timeout=duration
    )

    for peer in peers:
        client = sc.peers[str(peer["name"])].client
        completion = client.completion_time
        peer["completion"] = completion if completion is not None else duration
        peer["finished"] = completion is not None
        peer["goodput"] = (
            client.downloaded.total / peer["completion"]
            if peer["completion"] > 0 else 0.0
        )
        peer["uploaded"] = float(client.uploaded.total)
        peer["downloaded"] = float(client.downloaded.total)
    return {"peers": peers, "events": sc.sim.events_processed}


def _group(peers: Sequence[Mapping[str, object]], field: str) -> Optional[float]:
    values = [float(peer[field]) for peer in peers]
    return left_sum(values) / len(values) if values else None


@scenario
class FigXArena(Scenario):
    """Tournament sweep: strategy mixes × mobile fraction × default/wP2P."""

    name = "figx_arena"
    description = (
        "Strategy arena: free-riders and BitTyrant-style exploiters vs "
        "reference and robust (propshare) compliance, across mobile-host "
        "fractions, default vs wP2P clients"
    )
    defaults = {
        "mixes": list(ARENA_MIXES),
        "mobile_fractions": [0.0, 0.5],
        "runs": 3,
        "leechers": 10,
        "seed_up_rate": 16_000.0,
        "seed_slots": 2,
        "wired_up_rate": 56_000.0,
        "wired_down_rate": 500_000.0,
        "wireless_rate": 160_000.0,
        "handoff_interval": 60.0,
        "handoff_downtime": 1.0,
        "restart_delay": 5.0,
        "initial_fraction": 0.5,
        "unchoke_slots": 2,
        "optimistic_every": 3,
        "choke_interval": 5.0,
        "file_size_kib": 32_768,
        "piece_length": 32_768,
        "duration": 1800.0,
        "base_seed": 1700,
    }

    figure = "Strategy arena"
    title = "Exploiter-vs-compliant completion ratio across mixes"
    x_label = "Mobile-host fraction (of compliant leechers)"
    y_label = "Exploiter slowdown (completion ratio, >1 = penalized)"
    paper_expectation = (
        "free-riders finish slower than the reference peers they "
        "leech from (tit-for-tat penalty, ratio > 1) in all-wired "
        "swarms; the penalty shrinks as the mobile-host fraction "
        "rises (mobility neutralises incentives, §3.4); the "
        "propshare robust choker taxes the tyrant's "
        "download-per-upload efficiency; wP2P identity retention "
        "speeds the compliant mobile peers"
    )
    notes = (
        "per_strategy maps mix/mobile-fraction/variant to each "
        "strategy's mean completion, goodput and bytes "
        "uploaded/downloaded ('(mobile)' aggregates the mobile "
        "peers of the cell); exploiters always stay wired"
    )
    reports = {"runs": "runs", "leechers": "leechers"}

    def grid(self, p):
        for mix_name in p["mixes"]:
            if mix_name not in ARENA_MIXES:
                raise ValueError(
                    f"unknown arena mix {mix_name!r}; "
                    f"choose from {', '.join(ARENA_MIXES)}"
                )
        return [
            (mix, fraction, variant)
            for mix in p["mixes"]
            for fraction in p["mobile_fractions"]
            for variant in ("default", "wp2p")
            # No mobile hosts -> the variants are identical.
            if not (variant == "wp2p" and fraction == 0.0)
        ]

    def run_cell(self, key, seed, p):
        mix_name, fraction, variant = key
        return arena_run(
            seed, ARENA_MIXES[str(mix_name)], float(fraction),
            wp2p=(variant == "wp2p"), p=dict(p),
        )

    def assemble(self, p, values, failures):
        mixes = [str(m) for m in p["mixes"]]
        fractions = [float(f) for f in p["mobile_fractions"]]
        peers_of = {
            key: [peer for value in collect(values, key) for peer in value["peers"]]
            for key in self.grid(p)
        }

        def cell_peers(mix: str, fraction: float, variant: str):
            return peers_of.get((mix, fraction, variant), [])

        def outcome(members: Sequence[Mapping[str, object]]) -> Dict[str, object]:
            return {
                "peers": len(members),
                **{f: _group(members, f)
                   for f in ("completion", "goodput", "uploaded", "downloaded")},
                "finished": left_sum(1 for m in members if m["finished"]),
            }

        # Per-strategy outcome table for every (mix, fraction, variant).
        per_strategy: Dict[str, Dict[str, object]] = {}
        for (mix, fraction, variant), peers in peers_of.items():
            if not peers:
                continue
            groups = {
                strategy: outcome([peer for peer in peers if peer["strategy"] == strategy])
                for strategy in sorted({str(peer["strategy"]) for peer in peers})
            }
            mobile_members = [peer for peer in peers if peer["mobile"]]
            if mobile_members:
                groups["(mobile)"] = outcome(mobile_members)
            per_strategy[f"{mix}/{fraction:g}/{variant}"] = groups
        total_events = 0.0
        for value in values.values():
            total_events += float(value["events"])

        def slowdown(mix: str, fraction: float, variant: str) -> Optional[float]:
            """Exploiter mean completion over compliant mean completion.

            > 1: the exploiter is penalized (finishes slower than the
            compliant peers it leeches from); < 1: exploitation pays.
            """
            peers = cell_peers(mix, fraction, variant)
            top = _group([x for x in peers if x["strategy"] in EXPLOITERS], "completion")
            bottom = _group(
                [x for x in peers if x["strategy"] not in EXPLOITERS], "completion"
            )
            if top is None or bottom is None or bottom == 0:
                return None
            return top / bottom

        # Headline checks (computed on the least-mobile default cells):
        # the tit-for-tat free-rider penalty, and the robust choker's
        # toll on the tyrant's download-per-upload efficiency.
        base_fraction = min(fractions) if fractions else 0.0

        def efficiency(mix: str) -> Optional[float]:
            tyrants = [
                peer for peer in cell_peers(mix, base_fraction, "default")
                if peer["strategy"] == "tyrant"
            ]
            down = left_sum(float(peer["downloaded"]) for peer in tyrants)
            up = left_sum(float(peer["uploaded"]) for peer in tyrants)
            return down / up if up > 0 else None

        freerider_penalty = (
            slowdown("freeriders", base_fraction, "default")
            if "freeriders" in mixes else None
        )
        tyrant_efficiency = {
            label: efficiency(mix)
            for label, mix in (
                ("reference", "tyrants"), ("robust", "robust-tyrants"),
            )
            if mix in mixes
        }

        series = []
        for mix in mixes:
            if mix == "clean":
                continue
            for variant in ("default", "wp2p"):
                xs, ys = [], []
                for fraction in fractions:
                    ratio = slowdown(mix, fraction, variant)
                    if ratio is not None:
                        xs.append(fraction)
                        ys.append(ratio)
                if xs:
                    series.append(Series(f"{mix} [{variant}]", xs, ys))

        return self.result(p, series, {
            "mixes": {m: ARENA_MIXES[m] for m in mixes},
            "mobile_fractions": fractions,
            "duration": float(p["duration"]),
            "per_strategy": per_strategy,
            "freerider_penalty": freerider_penalty,
            "tyrant_efficiency": tyrant_efficiency,
            "engine_events": total_events,
        })

    def check(self, run):
        p = run.result.parameters
        penalty, eff = p["freerider_penalty"], p["tyrant_efficiency"]
        robust, reference = eff.get("robust"), eff.get("reference")
        return [
            Verdict("freeriders_pay", penalty is not None and penalty > 1.05,
                    {"freerider_penalty": penalty}),
            Verdict("propshare_taxes_the_tyrant",
                    robust is not None and reference is not None
                    and robust < reference - 0.05,
                    {"tyrant_efficiency": eff}),
        ]
