"""Fluid-backend CDN surrogate: popularity bands over asset classes.

The packet-level :class:`~repro.cdn.scenario.CdnScenario` simulates one
swarm per asset, which caps catalogs at tens of assets.  This module is
the CDN tier's fluid backend: it partitions the catalog's Zipf
popularity curve into **geometric rank bands** (1, 2–3, 4–7, …), treats
each band as one :class:`~repro.scale.assets.AssetClassParams`, and
solves the per-class supply/demand fixed point — so a 10^4-asset
catalog costs O(log assets) band solves instead of 10^4 swarm
integrations.

Mobility enters exactly as in :mod:`repro.scale`: the mobile fraction's
duty cycle comes from :meth:`repro.scale.model.PeerClass.availability`
(default clients pay ``restart_delay`` per handoff, wP2P pays
``reconnect_cost``), shrinking the peer supply and shifting delivered
bytes onto the origin — the offload-vs-mobility ordering the CI gate
asserts on both backends.

Band sizes are integer prefix sums of whole KiB: sums of multiples of
1024 below 2**63 are exact doubles, so they equal per-asset float sums
bit for bit.  Only the band solves are O(log assets): the Zipf weights
and the origin's expected active set stay order-sensitive O(assets) loops.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .. import context
from ..scale.assets import AssetClassParams, asset_class_outcome
from ..scale.model import EFFICIENCY, STARTUP_DELAY, PeerClass
from ..summation import left_sum
from .catalog import normalize_catalog
from .demand import mean_cycle_factor, normalize_demand, zipf_weights
from .origin import normalize_origin
from .scenario import PEER_DOWN_RATE

#: Geometric banding keeps the head of the Zipf curve exact (the top
#: asset is its own band) while the long tail aggregates coarsely.
MAX_BANDS = 16


def rank_bands(assets: int) -> List[Tuple[int, int]]:
    """Inclusive 1-based ``(first, last)`` rank ranges, geometric widths,
    at most :data:`MAX_BANDS` of them (the last takes the rest)."""
    if assets < 1:
        raise ValueError("assets must be >= 1")
    bands: List[Tuple[int, int]] = []
    start, width = 1, 1
    while start <= assets:
        if len(bands) == MAX_BANDS - 1:
            bands.append((start, assets))
            break
        end = min(assets, start + width - 1)
        bands.append((start, end))
        start = end + 1
        width *= 2
    return bands


def cdn_fluid_cell(
    catalog: object = None,
    demand: object = None,
    origin: object = None,
    peers: int = 6,
    mobile_fraction: float = 0.0,
    wp2p: bool = False,
    horizon: float = 300.0,
    peer_up_rate: float = 48_000.0,
    wireless_rate: float = 100_000.0,
    handoff_interval: Optional[float] = 60.0,
    handoff_downtime: float = 1.0,
) -> Dict[str, object]:
    """One fluid CDN cell: the packet cell's axes through band solves.

    Wired peers download at the packet cell's
    :data:`~repro.cdn.scenario.PEER_DOWN_RATE`; the catalog splits into
    at most :data:`MAX_BANDS` rank bands.  Returns the same result keys
    as :meth:`repro.cdn.scenario.CdnScenario.results`, so scenarios can
    assemble either backend's values identically.
    """
    ambient = context.get("workload") or {}  # beats the arguments
    catalog = ambient.get("catalog", catalog)
    demand = ambient.get("demand", demand)
    origin = ambient.get("origin", origin)
    cat = normalize_catalog(catalog)
    dem = normalize_demand(demand)
    org = normalize_origin(origin)
    if peers < 1:
        raise ValueError("peers must be >= 1")
    if not 0.0 <= mobile_fraction <= 1.0:
        raise ValueError("mobile_fraction must be in [0, 1]")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")

    assets = int(cat["assets"])  # type: ignore[arg-type]
    # KiB of ranks 1..r at index r (exact integers; module docstring).
    kib = list(accumulate(
        cat.get("sizes_kib") or [cat["size_kib"]] * assets, initial=0,  # type: ignore[call-overload]
    ))

    # Demand decomposition: Zipf weights, cycle-averaged rate, and the
    # flash crowd folded onto its target rank's band.
    weights = zipf_weights(assets, float(dem["alpha"]))
    base_rate = float(dem["rate"]) * mean_cycle_factor(dem.get("daily_cycle"))
    flash = dem.get("flash_crowd")
    flash_rank = min(int(flash["rank"]), assets) if flash is not None else None  # type: ignore[index]
    flash_rate = (
        float(flash["size"]) / horizon if flash is not None else 0.0  # type: ignore[index]
    )

    # The peer population's duty cycle: wired peers are always on, the
    # mobile fraction cycles through handoffs with a per-client recovery
    # cost — the same PeerClass arithmetic the single-swarm fluid engine
    # uses, so the two tiers share one mobility model.
    mobile_availability = 1.0
    if mobile_fraction > 0 and handoff_interval is not None:
        mobile_availability = PeerClass(
            "mobile", 1.0, peer_up_rate, wireless_rate,
            mobile=True, wp2p=wp2p, wireless_shared=True,
            handoff_interval=handoff_interval,
            handoff_downtime=handoff_downtime,
        ).availability()
    availability = (
        (1.0 - mobile_fraction) + mobile_fraction * mobile_availability
    )
    download = (
        (1.0 - mobile_fraction) * PEER_DOWN_RATE
        + mobile_fraction * wireless_rate
    )

    # Shared-uplink dilution: a peer serving several swarms splits one
    # bucket across them.  Expected concurrent fetches per peer sets the
    # slice each asset can count on.
    mean_size = float(kib[assets] * 1024) / assets
    total_rate = base_rate + flash_rate
    rough_latency = STARTUP_DELAY + mean_size / max(download * EFFICIENCY, 1e-9)
    seed_dwell = horizon / 2.0
    swarms_per_peer = total_rate * (rough_latency + seed_dwell) / peers
    uplink_share = 1.0 / max(1.0, swarms_per_peer)

    # Origin slice: its uplink splits over the expected active set (the
    # placement policy bounds it for the capacity-managed policies).
    pinned_k = int(org["k"]) if org["policy"] == "pin_top_k" else 0  # type: ignore[arg-type]
    pinned_k = min(pinned_k, assets)
    expected_active = float(pinned_k)
    for rank in range(pinned_k + 1, assets + 1):
        active = (base_rate * weights[rank - 1] + (
            flash_rate if rank == flash_rank else 0.0
        )) * horizon
        # min(1.0, active), bit for bit, without a builtin call per asset
        expected_active += active if active < 1.0 else 1.0
    if org["policy"] in ("pin_top_k", "lru_evict"):
        expected_active = min(expected_active, float(org["capacity"]))  # type: ignore[arg-type]
    origin_slice = float(org["up_rate"]) / max(expected_active, 1.0)  # type: ignore[arg-type]

    bands = rank_bands(assets)
    per_band: Dict[str, Dict[str, object]] = {}
    total_requests = 0.0
    served_requests = 0.0
    latency_mass = 0.0
    total_bytes = 0.0
    origin_bytes = 0.0
    for first, last in bands:
        n_assets = last - first + 1
        band_rate = base_rate * left_sum(weights[first - 1:last])
        if flash_rank is not None and first <= flash_rank <= last:
            band_rate += flash_rate
        per_asset_rate = band_rate / n_assets
        size = float((kib[last] - kib[first - 1]) * 1024) / n_assets
        outcome = asset_class_outcome(
            AssetClassParams(
                size=size,
                request_rate=per_asset_rate,
                download_rate=download,
                upload_rate=peer_up_rate,
                peer_availability=availability,
                uplink_share=uplink_share,
                seed_dwell=seed_dwell,
                origin_rate=origin_slice,
                pinned=last <= pinned_k,
                activation_delay=float(org["activation_delay"]),  # type: ignore[arg-type]
            ),
            horizon,
        )
        band_requests = outcome.requests * n_assets
        total_requests += band_requests
        served_requests += outcome.served_fraction * band_requests
        latency_mass += outcome.latency * band_requests
        total_bytes += outcome.total_bytes * n_assets
        origin_bytes += outcome.origin_bytes * n_assets
        per_band[f"{first}-{last}"] = {
            "requests": band_requests,
            "latency": outcome.latency,
            "offload": outcome.offload,
            "concurrency": outcome.concurrency * n_assets,
        }
    peer_bytes = max(0.0, total_bytes - origin_bytes)
    return {
        "requests": total_requests,
        "served": served_requests,
        "catalog_completion": (
            served_requests / total_requests if total_requests > 0 else 1.0
        ),
        "mean_latency": (
            latency_mass / total_requests if total_requests > 0 else 0.0
        ),
        "origin_bytes": origin_bytes,
        "peer_bytes": peer_bytes,
        "offload": (
            peer_bytes / total_bytes if total_bytes > 0 else 1.0
        ),
        "origin_activations": expected_active,
        "origin_evictions": 0.0,
        "per_asset": per_band,
        "steps": len(bands),
    }
