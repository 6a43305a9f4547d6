"""The multi-swarm CDN scenario: catalog + demand + origin + peers.

One :class:`CdnScenario` wires the whole tier together: a tracker
hosting one swarm per catalog asset, an always-on
:class:`~repro.cdn.origin.Origin` with a placement policy, and a
population of :class:`CdnPeer` hosts that join swarms *on demand* as the
request trace assigns them assets.  The defining constraint — the thing
a single-torrent :class:`~repro.bittorrent.swarm.SwarmScenario` cannot
express — is that each peer's per-asset clients share **one uplink**:
one :class:`~repro.bittorrent.rate.TokenBucket` across every swarm the
peer serves, one access link (wired) or one wireless channel (mobile)
under all of its connections.

The run context's ``workload`` (:mod:`repro.context`; the Runner's
``workload=`` axis, the CLI's ``--catalog``/``--demand``) takes
precedence over constructor arguments, so one flag retargets every
scenario in a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import context
from ..bittorrent.client import BitTorrentClient, ClientConfig
from ..bittorrent.metainfo import Torrent
from ..bittorrent.rate import TokenBucket
from ..bittorrent.tracker import Tracker
from ..net import (
    AddressAllocator,
    Host,
    Internet,
    MobilityController,
    WirelessChannel,
    attach_wired_host,
    attach_wireless_host,
)
from ..sim import PeriodicTask, Simulator
from ..summation import left_sum
from ..tcp.stack import TCPStack
from .catalog import PACKET_CATALOG_LIMIT, Catalog
from .demand import Request, ZipfDemand
from .origin import Origin

#: Per-asset peer listen ports start here (rank r listens on BASE + r).
PEER_BASE_PORT = 6881
#: Downlink of a wired peer, bytes/second.
PEER_DOWN_RATE = 500_000.0


@dataclass
class PendingRequest:
    """One in-flight catalog request awaiting its client's completion."""

    peer: "CdnPeer"
    rank: int
    time: float
    client: BitTorrentClient
    latency: Optional[float] = None  # set when served


@dataclass
class CdnPeer:
    """One CDN peer: a host, a shared uplink, and per-asset clients."""

    name: str
    index: int
    host: Host
    bucket: TokenBucket
    wireless: bool = False
    channel: Optional[WirelessChannel] = None
    mobility: Optional[MobilityController] = None
    #: rank -> the client fetching/seeding that asset on this host
    clients: Dict[int, BitTorrentClient] = field(default_factory=dict)

    def uploaded_bytes(self) -> float:
        return float(left_sum(c.uploaded.total for c in self.clients.values()))


class CdnScenario:
    """A P2P CDN testbed: N asset swarms, one origin, shared-uplink peers."""

    def __init__(
        self,
        seed: int = 0,
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
        tracker_interval: float = 60.0,
    ) -> None:
        # The ambient workload (Runner --catalog/--demand) beats
        # constructor arguments.
        ambient = context.get("workload") or {}
        catalog = ambient.get("catalog", catalog)
        demand = ambient.get("demand", demand)
        origin = ambient.get("origin", origin)
        if peers < 1:
            raise ValueError("peers must be >= 1")
        if not 0.0 <= mobile_fraction <= 1.0:
            raise ValueError("mobile_fraction must be in [0, 1]")
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.catalog = (
            catalog if isinstance(catalog, Catalog) else Catalog.from_spec(catalog)
        )
        if len(self.catalog) > PACKET_CATALOG_LIMIT:
            raise ValueError(
                f"catalog of {len(self.catalog)} assets exceeds the packet "
                f"backend's limit of {PACKET_CATALOG_LIMIT} swarms; run the "
                f"fluid backend (repro.cdn.surrogate) for large catalogs"
            )
        self.horizon = float(horizon)
        self.wp2p = bool(wp2p)

        self.sim = Simulator(seed=seed)
        self.internet = Internet(self.sim)
        self.alloc = AddressAllocator()

        # One tracker hosts every asset's swarm (the tracker keys its
        # records by info-hash, so multi-swarm costs nothing extra).
        self.tracker_host = Host(self.sim, "tracker")
        TCPStack(self.sim, self.tracker_host)
        attach_wired_host(
            self.sim, self.tracker_host, self.internet, self.alloc.allocate(),
            down_rate=10_000_000, up_rate=10_000_000,
        )
        self.tracker = Tracker(
            self.sim, self.tracker_host, interval=tracker_interval
        )
        self.torrents: Dict[int, Torrent] = {
            asset.rank: self.catalog.torrent(asset, self.tracker_host.ip or "")
            for asset in self.catalog
        }

        self.origin = Origin(
            self.sim, self.internet, self.alloc, self.catalog,
            self.torrents, spec=origin,
        )

        # Peer population: the trailing `mobile_count` peers are wireless
        # and mobile; the rest sit on asymmetric wired access links.
        mobile_count = round(peers * mobile_fraction)
        self.peers: List[CdnPeer] = []
        for i in range(peers):
            mobile = i >= peers - mobile_count
            name = f"peer{i}" if not mobile else f"mob{i}"
            host = Host(self.sim, name)
            TCPStack(self.sim, host)
            channel = None
            if mobile:
                channel = attach_wireless_host(
                    self.sim, host, self.internet, self.alloc.allocate(),
                    rate=wireless_rate,
                )
            else:
                attach_wired_host(
                    self.sim, host, self.internet, self.alloc.allocate(),
                    down_rate=PEER_DOWN_RATE, up_rate=peer_up_rate,
                )
            # THE shared uplink: one token bucket serves every swarm this
            # peer participates in, so seeding a popular asset steals
            # upload capacity from the niche one — the coupling that makes
            # a catalog different from N independent torrents.
            bucket = TokenBucket(self.sim, peer_up_rate)
            peer = CdnPeer(
                name=name, index=i, host=host, bucket=bucket,
                wireless=mobile, channel=channel,
            )
            if mobile and handoff_interval is not None:
                peer.mobility = MobilityController(
                    self.sim, host, self.internet, self.alloc,
                    interval=handoff_interval, downtime=handoff_downtime,
                )
                peer.mobility.start()
            self.peers.append(peer)

        # The demand side: a seeded trace scheduled up front, so the whole
        # run is a pure function of (spec, seed).
        self.demand = ZipfDemand(
            demand, assets=len(self.catalog), peers=peers, seed=seed
        )
        self.trace: List[Request] = self.demand.trace(self.horizon)
        self.pending: List[PendingRequest] = []

        self.origin.start()
        for request in self.trace:
            self.sim.schedule(request.time, self._handle_request, request)
        self._sweep = PeriodicTask(self.sim, 0.5, self._sweep_completions)
        self._sweep.start(first_delay=0.5)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _handle_request(self, request: Request) -> None:
        peer = self.peers[request.peer]
        rank = request.rank
        now = self.sim.now
        trace = self.sim.trace
        self.origin.on_request(rank, now)
        existing = peer.clients.get(rank)
        if existing is not None:
            # Local hit: the asset is already on (or streaming to) this
            # host.  An in-flight fetch still accrues latency from *this*
            # request's arrival; a finished one serves instantly.
            if trace.enabled:
                trace.event("cdn", "local_hit", peer=peer.name, rank=rank)
            if existing.complete:
                self.pending.append(
                    PendingRequest(peer, rank, now, existing, latency=0.0)
                )
                if trace.enabled:
                    trace.event(
                        "cdn", "complete", peer=peer.name, rank=rank, latency=0.0
                    )
            else:
                self.pending.append(PendingRequest(peer, rank, now, existing))
            return
        if trace.enabled:
            trace.event("cdn", "request", peer=peer.name, rank=rank)
        client = self._make_client(peer, rank)
        peer.clients[rank] = client
        self.pending.append(PendingRequest(peer, rank, now, client))
        if trace.enabled:
            trace.event("cdn", "join", peer=peer.name, rank=rank)
        client.start()

    def _make_client(self, peer: CdnPeer, rank: int) -> BitTorrentClient:
        """One per-asset client sharing the peer's uplink bucket."""
        if self.wp2p and peer.wireless:
            from ..wp2p.client import WP2PClient, WP2PConfig

            # AM is per-host netfilter state; with one client per swarm on
            # the same host, stacked AM hooks would manipulate each
            # other's ACKs.  The multi-swarm wP2P story is IA + MA.
            config = WP2PConfig(
                am_enabled=False,
                listen_port=PEER_BASE_PORT + rank,
            )
            return WP2PClient(
                self.sim, peer.host, self.torrents[rank],
                config=config, name=f"{peer.name}.r{rank}",
                upload_bucket=peer.bucket,
            )
        config = ClientConfig(listen_port=PEER_BASE_PORT + rank)
        return BitTorrentClient(
            self.sim, peer.host, self.torrents[rank],
            config=config, name=f"{peer.name}.r{rank}",
            upload_bucket=peer.bucket,
        )

    def _sweep_completions(self) -> None:
        for entry in self.pending:
            if entry.latency is None and entry.client.complete:
                completed_at = entry.client.completion_time
                if completed_at is None:
                    completed_at = self.sim.now
                entry.latency = max(0.0, completed_at - entry.time)
                if self.sim.trace.enabled:
                    self.sim.trace.event(
                        "cdn", "complete", peer=entry.peer.name,
                        rank=entry.rank, latency=entry.latency,
                    )

    # ------------------------------------------------------------------
    # Execution / results
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=self.horizon if until is None else until)

    def results(self) -> Dict[str, object]:
        """Aggregate CDN outcomes (JSON-friendly, deterministic order)."""
        self._sweep_completions()  # pick up completions since the last tick
        total = len(self.pending)
        served = left_sum(1 for e in self.pending if e.latency is not None)
        latencies = [
            e.latency if e.latency is not None else self.horizon - e.time
            for e in self.pending
        ]
        per_asset: Dict[str, Dict[str, object]] = {}
        for asset in self.catalog:
            entries = [e for e in self.pending if e.rank == asset.rank]
            if not entries:
                continue
            done = [e for e in entries if e.latency is not None]
            per_asset[str(asset.rank)] = {
                "requests": len(entries),
                "completed": len(done),
                "mean_latency": (
                    left_sum(e.latency for e in done) / len(done) if done else None
                ),
            }
        origin_bytes = self.origin.uploaded_bytes()
        peer_bytes = left_sum(p.uploaded_bytes() for p in self.peers)
        delivered = origin_bytes + peer_bytes
        return {
            "requests": total,
            "served": served,
            "catalog_completion": served / total if total else 1.0,
            "mean_latency": left_sum(latencies) / total if total else 0.0,
            "origin_bytes": origin_bytes,
            "peer_bytes": peer_bytes,
            "offload": peer_bytes / delivered if delivered > 0 else 1.0,
            "origin_activations": self.origin.activations,
            "origin_evictions": self.origin.evictions,
            "per_asset": per_asset,
            "steps": self.sim.events_processed,
        }
