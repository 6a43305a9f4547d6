"""The wP2P client: all three components integrated (paper §4.4).

``WP2PClient`` is a drop-in replacement for
:class:`~repro.bittorrent.client.BitTorrentClient` on a mobile host.  It is
fully backward compatible on the wire — fixed peers see a normal BitTorrent
peer — but locally it runs:

* **AM** (Age-based Manipulation) as a Netfilter pair on the host,
* **IA**: the LIHD upload controller (when ``lihd_u_max`` is set) and
  identity retention across handoffs,
* **MA**: mobility-aware fetching as the piece selector and role reversal
  as the IP-change policy.

Each component can be toggled independently, which is how the evaluation
benchmarks isolate them exactly as the paper's §5.2 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bittorrent.client import BitTorrentClient, ClientConfig
from ..bittorrent.metainfo import Torrent
from ..bittorrent.selection import PieceSelector
from ..net.host import Host
from ..sim import Simulator
from .age_manipulation import DEFAULT_GAMMA_BYTES, AgeBasedManipulation
from .incentive_aware import IdentityRetention, LIHDController
from .mobility_aware import MobilityAwareSelector

#: Seconds between an address change and role reversal's reconnects.
ROLE_REVERSAL_DELAY = 0.5


@dataclass
class WP2PConfig(ClientConfig):
    """wP2P knobs on top of the base client configuration."""

    # Age-based Manipulation
    am_enabled: bool = True
    am_gamma_bytes: int = DEFAULT_GAMMA_BYTES
    # Incentive-Aware operations
    identity_retention: bool = True
    lihd_u_max: Optional[float] = None  # bytes/s; None disables LIHD
    lihd_alpha: float = 10_240.0
    lihd_beta: float = 10_240.0
    lihd_interval: float = 5.0
    # Mobility-Aware operations
    mobility_aware_fetching: bool = True
    role_reversal: bool = True


def _components(overrides, am=False, ia=False) -> WP2PConfig:
    """wP2P with only the named components on (``ia``: identity retention
    + role reversal), then ``overrides`` applied field by field."""
    cfg = WP2PConfig(
        am_enabled=am,
        mobility_aware_fetching=False,
        identity_retention=ia,
        role_reversal=ia,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def am_only_config(**overrides) -> WP2PConfig:
    """wP2P with only the AM component active (isolates §5.2.1)."""
    return _components(overrides, am=True)


def rr_only_config(**overrides) -> WP2PConfig:
    """wP2P with the incentive-aware components only: role reversal +
    identity retention, AM and MF off (isolates §5.2.2 and §5.2.4)."""
    return _components(overrides, ia=True)


def wp2p_ip_change_policy(client: "WP2PClient", old, new) -> None:
    """IP-change handling with identity retention and role reversal.

    Unlike the deployed-client default (task re-init, fresh peer ID, wait
    for the tracker), wP2P re-announces under the *same* peer ID — so the
    tracker updates the existing swarm record in place and remote-peer
    credit keyed to the ID survives — and immediately re-initiates
    connections to the peers it remembers.
    """
    wcfg = client.wconfig
    keep_id = wcfg.identity_retention
    if wcfg.role_reversal:
        client.schedule_task_restart(
            new_peer_id=not keep_id,
            delay=ROLE_REVERSAL_DELAY,
            forget_peers=False,
        )
    else:
        client.schedule_task_restart(new_peer_id=not keep_id)


class WP2PClient(BitTorrentClient):
    """Mobile-host BitTorrent client with the wP2P solution suite.

    Takes :class:`BitTorrentClient`'s arguments.  With mobility-aware
    fetching on and no ``selector``, it fetches with a
    :class:`MobilityAwareSelector` on the paper's linear pr schedule; a
    caller wanting another schedule passes
    ``selector=MobilityAwareSelector(schedule)``.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        torrent: Torrent,
        complete: bool = False,
        selector: Optional[PieceSelector] = None,
        config: Optional[WP2PConfig] = None,
        name: Optional[str] = None,
        initial_pieces=None,
        strategy=None,
        codec=None,
        upload_bucket=None,
    ) -> None:
        wconfig = config or WP2PConfig()
        if selector is None and wconfig.mobility_aware_fetching:
            # MA fetching outranks a strategy's selector preference: it is
            # the wP2P component under test, while strategies primarily
            # carry choking behaviour (which composes freely with it).
            selector = MobilityAwareSelector()
        super().__init__(
            sim, host, torrent,
            complete=complete, selector=selector, config=wconfig, name=name,
            initial_pieces=initial_pieces, strategy=strategy, codec=codec,
            upload_bucket=upload_bucket,
        )
        # The base constructor may have replaced the config with a copy
        # carrying strategy overrides; keep wconfig pointing at the live one.
        self.wconfig: WP2PConfig = self.config  # type: ignore[assignment]
        self.identity = IdentityRetention()
        self.identity.remember(torrent.info_hash, self.peer_id)
        if isinstance(self.selector, MobilityAwareSelector):
            self.selector.trace = sim.trace
            self.selector.owner = self.name

        self.am: Optional[AgeBasedManipulation] = None
        if wconfig.am_enabled:
            self.am = AgeBasedManipulation(
                sim, host, gamma_bytes=wconfig.am_gamma_bytes
            )

        self.lihd: Optional[LIHDController] = None
        if wconfig.lihd_u_max is not None:
            self.lihd = LIHDController(
                self, wconfig.lihd_u_max,
                alpha=wconfig.lihd_alpha,
                beta=wconfig.lihd_beta,
                interval=wconfig.lihd_interval,
            )

        self.ip_change_policy = wp2p_ip_change_policy
        self.reconnections = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self.am is not None:
            self.am.install()
        if self.lihd is not None:
            self.lihd.start()

    def stop(self, announce: bool = True) -> None:
        if self.am is not None:
            self.am.uninstall()
        if self.lihd is not None:
            self.lihd.stop()
        super().stop(announce=announce)

    # ------------------------------------------------------------------
    def restart_task(
        self, new_peer_id: bool = True, forget_peers: Optional[bool] = None
    ) -> None:
        """Identity retention: restore the swarm's stored peer ID on
        re-initiation instead of honouring ``new_peer_id``."""
        if self.wconfig.identity_retention:
            stored = self.identity.recall(self.torrent.info_hash)
            if stored is not None:
                new_peer_id = False
                self.peer_id = stored
        self.reconnections += 1
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "wp2p", "task_reinit", client=self.name,
                identity_retained=not new_peer_id,
                role_reversal=not (forget_peers or new_peer_id),
                reconnections=self.reconnections,
            )
        super().restart_task(new_peer_id=new_peer_id, forget_peers=forget_peers)
        self.identity.remember(self.torrent.info_hash, self.peer_id)
