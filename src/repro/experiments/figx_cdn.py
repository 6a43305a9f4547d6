"""CDN workload sweep — origin offload vs mobile hosts (``figx_cdn``).

Not a figure from the paper: the paper's single-swarm economics scaled
up to a content catalog.  A :class:`~repro.cdn.scenario.CdnScenario`
serves a Zipf-demanded catalog from a peer population plus an always-on
origin; the sweep raises the population's mobile fraction and measures
**origin offload** — the fraction of delivered bytes the *peers* carry.

The mechanism under test is the paper's, compounded across swarms: a
default mobile peer that hands off restarts every per-asset task under a
fresh peer ID and waits out the tracker interval before the swarms see
it again, so every asset it was seeding falls back onto the origin at
once.  wP2P clients (identity retention + role-reversal reconnect; AM is
per-host netfilter state and stays off in multi-swarm use) come back in
~half a second with their peer memory intact.

Expectation: offload decreases monotonically with the mobile fraction
under default clients, and wP2P recovers at least half of the lost
offload at every nonzero fraction — the CI ``cdn`` gate, asserted on
both backends.

The fluid backend maps the same axes through
:func:`repro.cdn.surrogate.cdn_fluid_cell`: popularity bands become
:class:`~repro.scale.assets.AssetClassParams` classes, mobility becomes
the :meth:`~repro.scale.model.PeerClass.availability` duty cycle, and
the origin carries its proportional share of each band's warm byte
flow.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import ExperimentResult, Series
from ..cdn import CdnScenario, cdn_fluid_cell
from ..runner import Scenario, collect, scenario

CLIENTS: Sequence[str] = ("default", "wp2p")
MOBILE_FRACTIONS: Sequence[float] = (0.0, 0.4, 0.8)

#: Tolerance for the monotonicity check: offload values are means over a
#: handful of seeded runs, so "decreases" must absorb float noise.
GATE_EPSILON = 1e-6


def cdn_run(
    seed: int,
    client: str,
    mobile_fraction: float,
    p: Dict[str, object],
) -> Dict[str, object]:
    """One packet cell: a full multi-swarm CDN run at one sweep point."""
    if client not in CLIENTS:
        raise ValueError(f"unknown client {client!r} (expected {CLIENTS})")
    sc = CdnScenario(
        seed=seed,
        catalog=p["catalog"],
        demand=p["demand"],
        origin=p["origin"],
        peers=int(p["peers"]),
        mobile_fraction=float(mobile_fraction),
        wp2p=(client == "wp2p"),
        horizon=float(p["duration"]),
        peer_up_rate=float(p["peer_up_rate"]),
        wireless_rate=float(p["wireless_rate"]),
        handoff_interval=float(p["handoff_interval"]),
        handoff_downtime=float(p["handoff_downtime"]),
        tracker_interval=float(p["tracker_interval"]),
    )
    sc.run()
    return sc.results()


def cdn_fluid_run(
    client: str, mobile_fraction: float, p: Dict[str, object]
) -> Dict[str, object]:
    """One fluid cell: the same sweep point through the band surrogate."""
    if client not in CLIENTS:
        raise ValueError(f"unknown client {client!r} (expected {CLIENTS})")
    return cdn_fluid_cell(
        catalog=p["catalog"],
        demand=p["demand"],
        origin=p["origin"],
        peers=int(p["peers"]),
        mobile_fraction=float(mobile_fraction),
        wp2p=(client == "wp2p"),
        horizon=float(p["duration"]),
        peer_up_rate=float(p["peer_up_rate"]),
        wireless_rate=float(p["wireless_rate"]),
        handoff_interval=float(p["handoff_interval"]),
        handoff_downtime=float(p["handoff_downtime"]),
    )


@scenario
class FigXCdn(Scenario):
    """Origin offload & hit latency vs mobile fraction, default vs wP2P."""

    name = "figx_cdn"
    description = (
        "CDN workload sweep: catalog hit latency and origin offload vs "
        "mobile-host fraction, default clients vs wP2P"
    )
    backends = ("packet", "fluid")
    defaults = {
        "clients": list(CLIENTS),
        "mobile_fractions": list(MOBILE_FRACTIONS),
        "runs": 4,
        "peers": 10,
        "catalog": "assets:4,size_kib:256,piece_kib:16",
        "demand": "zipf:0.9@0.15",
        "origin": {
            "policy": "pin_top_k", "k": 1, "capacity": 4,
            "up_rate": 100_000.0,
        },
        "duration": 600.0,
        "peer_up_rate": 50_000.0,
        "wireless_rate": 48_000.0,
        "handoff_interval": 15.0,
        "handoff_downtime": 2.0,
        "tracker_interval": 90.0,
        "base_seed": 1400,
    }

    def cells(self, p):
        for client in p["clients"]:
            for fraction in p["mobile_fractions"]:
                for r in range(p["runs"]):
                    yield (client, fraction), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        client, fraction = key
        return cdn_run(seed, str(client), float(fraction), dict(p))

    def run_cell_fluid(self, key, seed, p):
        client, fraction = key
        return cdn_fluid_run(str(client), float(fraction), dict(p))

    def assemble(self, p, values, failures):
        fractions = [float(f) for f in p["mobile_fractions"]]
        clients = [str(c) for c in p["clients"]]

        def sweep(client: str, field: str) -> List[float]:
            out: List[float] = []
            for fraction in fractions:
                vals = collect(values, (client, fraction))
                out.append(
                    sum(float(v[field]) for v in vals) / max(len(vals), 1)
                )
            return out

        offload = {c: sweep(c, "offload") for c in clients}
        latency = {c: sweep(c, "mean_latency") for c in clients}
        completion = {c: sweep(c, "catalog_completion") for c in clients}

        gate: Dict[str, object] = {}
        if "default" in offload and "wp2p" in offload:
            default_off = offload["default"]
            wp2p_off = offload["wp2p"]
            baseline = default_off[0]
            gaps = [baseline - d for d in default_off]
            recovered = [w - d for w, d in zip(wp2p_off, default_off)]
            monotone = all(
                later <= earlier + GATE_EPSILON
                for earlier, later in zip(default_off, default_off[1:])
            )
            # wP2P must win back >= half the offload mobility cost at
            # every fraction where there is a cost to win back.
            recovers = all(
                rec >= 0.5 * gap - GATE_EPSILON
                for gap, rec in zip(gaps, recovered)
                if gap > GATE_EPSILON
            )
            gate = {
                "mobile_fractions": fractions,
                "default_offload": default_off,
                "wp2p_offload": wp2p_off,
                "gaps": gaps,
                "recovered": recovered,
                "offload_monotone_decreasing": monotone,
                "wp2p_recovers_half_gap": recovers,
            }

        labels = {"default": "Default clients", "wp2p": "wP2P mobile clients"}
        return ExperimentResult(
            figure="CDN sweep",
            title=(
                "Origin offload vs mobile-host fraction "
                f"({p['catalog']}, {p['demand']})"
            ),
            x_label="Mobile-host fraction",
            y_label="Origin offload (peer bytes / delivered bytes)",
            series=[
                Series(labels.get(c, c), fractions, offload[c])
                for c in clients
            ],
            paper_expectation=(
                "origin offload decreases monotonically with the mobile "
                "fraction under default clients (every handoff restarts "
                "every per-asset task and the origin absorbs the seeding "
                "loss across all swarms at once); wP2P identity retention "
                "and role-reversal reconnect recover at least half of the "
                "lost offload at every nonzero fraction"
            ),
            notes="mean hit latency (s) "
                  + " | ".join(
                      f"{c}: "
                      + ", ".join(f"{t:.1f}" for t in latency[c])
                      for c in clients
                  ),
            parameters={
                "clients": clients,
                "mobile_fractions": fractions,
                "runs": p["runs"],
                "duration_s": p["duration"],
                "catalog": p["catalog"],
                "demand": p["demand"],
                "origin": p["origin"],
                "offload": offload,
                "catalog_completion": completion,
                "gate": gate,
            },
        )
