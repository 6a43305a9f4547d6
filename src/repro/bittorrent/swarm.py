"""Swarm scenario builder.

Assembles complete testbeds — tracker, wired fixed peers, wireless mobile
peers, mobility controllers — mirroring the paper's setups (Figures 1
and 10) in a few lines.  Used by tests, examples, and every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import chaos as chaos_defaults
from .. import coding as coding_defaults
from .. import context
from .. import strategy as strategy_defaults
from ..chaos import ChaosController, ChaosSchedule
from ..net import (
    AddressAllocator,
    Host,
    Internet,
    MobilityController,
    WirelessChannel,
    attach_wired_host,
    attach_wireless_host,
)
from ..sim import Simulator
from ..tcp.stack import TCPStack
from .client import BitTorrentClient, ClientConfig
from .metainfo import Torrent, make_torrent
from .selection import PieceSelector
from .tracker import Tracker

#: Seconds between the starts of consecutive clients in ``start_all``.
START_STAGGER = 0.1


@dataclass
class PeerHandle:
    """Everything a scenario knows about one peer."""

    name: str
    host: Host
    client: BitTorrentClient
    channel: Optional[WirelessChannel] = None
    mobility: Optional[MobilityController] = None
    #: Excluded from wildcard/class chaos targets (still reachable by
    #: exact name).  Set on synthetic aggregates like the hybrid
    #: backend's background facade, whose faults are modelled elsewhere.
    chaos_exempt: bool = False

    @property
    def wireless(self) -> bool:
        return self.channel is not None


class SwarmScenario:
    """A tracker plus any number of wired/wireless peers for one torrent."""

    def __init__(
        self,
        seed: int = 0,
        file_size: int = 4 * 1024 * 1024,
        piece_length: int = 65_536,
        tracker_interval: float = 120.0,
        torrent_name: str = "shared-file",
        content=None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.internet = Internet(self.sim)
        self.alloc = AddressAllocator()

        self.tracker_host = Host(self.sim, "tracker")
        TCPStack(self.sim, self.tracker_host)
        attach_wired_host(
            self.sim, self.tracker_host, self.internet, self.alloc.allocate(),
            down_rate=10_000_000, up_rate=10_000_000,
        )
        self.tracker = Tracker(
            self.sim, self.tracker_host, interval=tracker_interval
        )
        self.torrent: Torrent = make_torrent(
            torrent_name,
            total_size=file_size,
            piece_length=piece_length,
            tracker_ip=self.tracker_host.ip or "",
        )
        self.peers: Dict[str, PeerHandle] = {}
        # Ambient axes from the run context (repro.context): chaos is armed
        # now, so a later add_chaos raises; an explicit content= beats the
        # ambient value.
        #: armed fault-injection controller, if any (see repro.chaos)
        self.chaos: Optional[ChaosController] = None
        chaos_defaults.apply_defaults(self)
        #: assigns peers their strategies from the mix, if any (repro.strategy)
        self._strategy_assigner: Optional[strategy_defaults.MixAssigner] = None
        mix = context.get("strategies")
        if mix:
            normalized = strategy_defaults.normalize_mix(mix)
            if not strategy_defaults.mix_is_default(normalized):
                self._strategy_assigner = strategy_defaults.MixAssigner(normalized)
        #: canonical content mode, if non-default (repro.coding).  Plain
        #: replication stays ``None`` so every peer keeps the historical
        #: trivial-codec fast path.
        self.content = None
        spec = content if content is not None else context.get("content")
        if spec is not None:
            normalized_content = coding_defaults.normalize_content(spec)
            if not coding_defaults.content_is_default(normalized_content):
                self.content = normalized_content

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def add_chaos(self, schedule: ChaosSchedule) -> ChaosController:
        """Arm a :class:`~repro.chaos.ChaosSchedule` against this swarm.

        Fault targets are resolved when each fault fires, so this can be
        called before or after the peers are built.  Only one controller
        may be armed per scenario (schedules compose with ``+`` instead).
        """
        if self.chaos is not None:
            raise RuntimeError(
                "scenario already has an armed ChaosController; "
                "compose schedules with + before attaching"
            )
        self.chaos = ChaosController(self, schedule).arm()
        return self.chaos

    # ------------------------------------------------------------------
    # Peer construction
    # ------------------------------------------------------------------
    def add_wired_peer(
        self,
        name: str,
        complete: bool = False,
        down_rate: float = 500_000.0,
        up_rate: float = 48_000.0,
        config: Optional[ClientConfig] = None,
        selector: Optional[PieceSelector] = None,
        initial_pieces=None,
        strategy=None,
    ) -> PeerHandle:
        """A fixed peer on an asymmetric wired access link."""
        host = Host(self.sim, name)
        TCPStack(self.sim, host)
        attach_wired_host(
            self.sim, host, self.internet, self.alloc.allocate(),
            down_rate=down_rate, up_rate=up_rate,
        )
        client = BitTorrentClient(
            self.sim, host, self.torrent,
            complete=complete, selector=selector, config=config, name=name,
            initial_pieces=initial_pieces,
            strategy=self._strategy(strategy, "wired", complete),
            codec=self._codec(),
        )
        handle = PeerHandle(name, host, client)
        self.peers[name] = handle
        return handle

    def add_wireless_peer(
        self,
        name: str,
        complete: bool = False,
        rate: float = 100_000.0,
        ber: float = 0.0,
        ap_queue_packets: int = 50,
        config: Optional[ClientConfig] = None,
        selector: Optional[PieceSelector] = None,
        client_factory=BitTorrentClient,
        initial_pieces=None,
        strategy=None,
    ) -> PeerHandle:
        """A (potentially mobile) peer behind a shared wireless cell.

        ``client_factory`` is :class:`BitTorrentClient` or
        :class:`~repro.wp2p.WP2PClient`; it is called with the
        constructor keywords they share, each passed by name.
        """
        host = Host(self.sim, name)
        TCPStack(self.sim, host)
        channel = attach_wireless_host(
            self.sim, host, self.internet, self.alloc.allocate(),
            rate=rate, ber=ber, ap_queue_packets=ap_queue_packets,
        )
        client = client_factory(
            self.sim, host, self.torrent,
            complete=complete, selector=selector, config=config, name=name,
            initial_pieces=initial_pieces,
            strategy=self._strategy(strategy, "mobile", complete),
            codec=self._codec(),
        )
        handle = PeerHandle(name, host, client, channel=channel)
        self.peers[name] = handle
        return handle

    def _strategy(self, strategy, population: str, complete: bool):
        """Resolve a peer's strategy: explicit beats the scenario mix.

        Seeds never draw from the mix (the sweep fractions describe the
        leecher population).
        """
        if strategy is None and self._strategy_assigner is not None and not complete:
            strategy = self._strategy_assigner.assign(population)
        return strategy

    def _codec(self):
        """A fresh codec per peer when a content mode is set, else None."""
        if self.content is None:
            return None
        return coding_defaults.make_codec(self.content, self.torrent)

    def custody_pieces(self, column: int, custodians: int) -> List[int]:
        """Initial pieces for custody seed ``column`` of ``custodians``.

        PeerDAS-style subset seeding: the custodians jointly cover every
        piece index exactly once.  Layout is content-agnostic — under
        replication each piece has one holder; under a grouped codec each
        custodian holds an interleaved column of coded pieces.
        """
        return coding_defaults.custody_column(
            self.torrent.num_pieces, column, custodians
        )

    def add_mobility(
        self,
        peer: PeerHandle,
        interval: float,
        downtime: float = 1.0,
        jitter: float = 0.0,
    ) -> MobilityController:
        """Attach periodic IP renumbering to a peer and start it."""
        controller = MobilityController(
            self.sim, peer.host, self.internet, self.alloc,
            interval=interval, downtime=downtime, jitter=jitter,
        )
        peer.mobility = controller
        controller.start()
        return controller

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every client, ``START_STAGGER`` apart to avoid
        thundering-herd announces."""
        for i, handle in enumerate(self.peers.values()):
            self.sim.schedule(i * START_STAGGER, handle.client.start)

    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def run_until_complete(
        self,
        names: Optional[List[str]] = None,
        timeout: float = 3600.0,
    ) -> bool:
        """Run until the named clients (default: all leeches) finish,
        checking once per simulated second."""
        if names is None:
            names = [n for n, h in self.peers.items() if not h.client.complete]
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if all(self.peers[n].client.complete for n in names):
                return True
            self.sim.run(until=min(self.sim.now + 1.0, deadline))
        return all(self.peers[n].client.complete for n in names)

    def __getitem__(self, name: str) -> PeerHandle:
        return self.peers[name]
