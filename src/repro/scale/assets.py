"""Per-asset-class steady-state surrogate for catalog workloads.

The fluid engine (:mod:`repro.scale.fluid`) integrates *one* swarm as a
set of peer classes.  A CDN catalog is thousands of swarms — integrating
each would put the cost back on the catalog size.  This module is the
asset-side analogue of :class:`~repro.scale.model.PeerClass`: it treats
every asset (or popularity band of assets) as a **class** and solves a
deterministic supply/demand fixed point per class, so a 10^4-asset
catalog costs O(bands), not O(assets × time steps).

The balance per asset class, in bytes/second:

* **demand** — requests arrive at ``request_rate`` and each wants
  ``size`` bytes, so steady-state byte demand is ``request_rate * size``
  with ``N = request_rate * T`` leechers concurrently fetching (Little's
  law at the fixed-point latency ``T``).
* **peer supply** — a still-downloading peer contributes
  ``WARM_UPLOAD`` of its uplink; a finished peer keeps seeding for
  ``seed_dwell`` seconds, contributing its full uplink.  Both are scaled
  by the population's duty-cycle ``peer_availability`` (mobile handoffs;
  compute it with :meth:`~repro.scale.model.PeerClass.availability`) and
  by ``uplink_share`` (the asset's slice of each peer's *shared* multi-
  swarm uplink).
* **origin supply** — ``origin_rate`` when the placement policy has the
  asset active.  The origin is one more always-on seed, so it carries a
  share of the warm byte flow proportional to its slice of total supply.
  The first copy of any asset additionally always comes from the origin
  (no peer has it), after ``activation_delay`` for a non-pinned asset —
  that cold transfer is what the offload fraction can never reclaim on a
  one-request tail asset.

The same calibration constants as the fluid engine apply
(``EFFICIENCY``, ``STARTUP_DELAY``), so the two tiers stay mutually
anchored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EFFICIENCY, STARTUP_DELAY

_FIXED_POINT_ITERATIONS = 24
#: Share of its uplink a still-downloading peer offers.
WARM_UPLOAD = 0.5


@dataclass(frozen=True)
class AssetClassParams:
    """One asset class (an asset, or a popularity band treated as one)."""

    size: float  # bytes per asset
    request_rate: float  # requests/second for this asset
    download_rate: float  # per-leecher access downlink, bytes/s
    upload_rate: float  # per-peer uplink, bytes/s
    peer_availability: float = 1.0  # duty cycle of the peer population
    uplink_share: float = 1.0  # this asset's slice of the shared uplink
    seed_dwell: float = 150.0  # seconds a finished peer keeps seeding
    origin_rate: float = 0.0  # origin uplink slice for this asset
    pinned: bool = False  # seeded from t=0 (no activation delay)
    activation_delay: float = 3.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be > 0")
        if self.request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        if self.download_rate <= 0 or self.upload_rate < 0:
            raise ValueError("rates must be positive (upload may be 0)")
        if not 0.0 < self.peer_availability <= 1.0:
            raise ValueError("peer_availability must be in (0, 1]")
        if not 0.0 < self.uplink_share <= 1.0:
            raise ValueError("uplink_share must be in (0, 1]")
        if self.seed_dwell < 0 or self.origin_rate < 0:
            raise ValueError("seed_dwell and origin_rate must be >= 0")
        if self.activation_delay < 0:
            raise ValueError("activation_delay must be >= 0")


@dataclass(frozen=True)
class AssetClassOutcome:
    """Window outcome of one asset class under the fixed point."""

    latency: float  # mean request latency (s), censored at the horizon
    cold_latency: float  # first-copy latency (origin transfer)
    served_fraction: float  # requests completing inside the horizon
    requests: float  # expected requests over the window
    total_bytes: float  # bytes the window's requests want
    origin_bytes: float  # bytes the origin actually serves
    offload: float  # 1 - origin_bytes / total_bytes
    concurrency: float  # Little's-law concurrent leechers


def asset_class_outcome(
    p: AssetClassParams, horizon: float
) -> AssetClassOutcome:
    """Solve one asset class's supply/demand balance over ``horizon``.

    Deterministic (a pure function of the params), monotone in
    ``peer_availability`` — less-available peers supply less, the origin
    absorbs the deficit, offload falls — which is exactly the ordering
    the CDN mobility gate asserts.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    # Effective per-leecher goodput ceiling: protocol efficiency plus the
    # requester's own duty cycle (a handed-off mobile host downloads
    # nothing mid-handoff).
    d_eff = p.download_rate * EFFICIENCY * p.peer_availability
    # Per-peer useful uplink toward this asset.
    u_eff = p.upload_rate * p.uplink_share * p.peer_availability * EFFICIENCY
    activation = 0.0 if p.pinned else p.activation_delay

    # Cold latency: the first copy streams from the origin alone.
    if p.origin_rate > 0:
        cold_rate = min(d_eff, p.origin_rate * EFFICIENCY)
        cold_latency = STARTUP_DELAY + activation + p.size / cold_rate
    else:
        cold_latency = horizon  # censored: nobody has the bytes
    cold_latency = min(cold_latency, horizon)

    rate = float(p.request_rate)
    if rate <= 0:
        return AssetClassOutcome(
            latency=cold_latency, cold_latency=cold_latency,
            served_fraction=1.0 if cold_latency < horizon else 0.0,
            requests=0.0, total_bytes=0.0, origin_bytes=0.0,
            offload=1.0, concurrency=0.0,
        )

    # Warm fixed point: latency <-> concurrency <-> peer supply.
    latency = STARTUP_DELAY + p.size / d_eff
    origin_supply = p.origin_rate * EFFICIENCY
    peer_supply = 0.0
    for _ in range(_FIXED_POINT_ITERATIONS):
        concurrency = rate * latency
        peer_supply = u_eff * (
            concurrency * WARM_UPLOAD + rate * p.seed_dwell
        )
        demand = max(concurrency, 1.0) * d_eff
        utilization = min(1.0, (peer_supply + origin_supply) / demand)
        goodput = max(d_eff * utilization, 1e-9)
        latency = STARTUP_DELAY + p.size / goodput
    latency = min(latency, horizon)
    concurrency = rate * latency

    requests = rate * horizon
    total_bytes = requests * p.size
    # Warm-flow split: the origin is one more (always-on) seed competing
    # for unchoke slots, so it carries its proportional share of the
    # served byte flow — shrinking peer supply (mobility) shifts bytes
    # onto the origin smoothly rather than only past a deficit cliff.
    demand_rate = rate * p.size
    supply = peer_supply + origin_supply
    if supply > 0:
        served_rate = min(demand_rate, supply)
        origin_used_rate = served_rate * (origin_supply / supply)
    else:
        origin_used_rate = 0.0
    warm_window = max(0.0, horizon - cold_latency)
    origin_bytes = min(p.size, total_bytes) + origin_used_rate * warm_window
    origin_bytes = min(origin_bytes, total_bytes)
    offload = 1.0 - origin_bytes / total_bytes if total_bytes > 0 else 1.0

    # Mean latency blends the one cold fetch into the warm population;
    # served fraction censors requests arriving too late to finish.
    cold_weight = min(1.0, 1.0 / max(requests, 1.0))
    mean_latency = cold_weight * cold_latency + (1.0 - cold_weight) * latency
    served = max(0.0, 1.0 - mean_latency / horizon)
    return AssetClassOutcome(
        latency=mean_latency,
        cold_latency=cold_latency,
        served_fraction=served,
        requests=requests,
        total_bytes=total_bytes,
        origin_bytes=origin_bytes,
        offload=offload,
        concurrency=concurrency,
    )
