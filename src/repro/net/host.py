"""Hosts and network interfaces.

A :class:`Host` owns one interface, a Netfilter hook pair, and a transport
protocol handler (the TCP stack registers itself).  Mobility is expressed as
interface state: ``take_down()`` / ``bring_up(new_ip)``, with listeners
notified of address changes — exactly the signal the paper's wP2P client
watches to trigger identity retention and role reversal.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, List, Optional, Protocol

from ..sim import Simulator
from .netfilter import Netfilter
from .packet import Packet


class TransportHandler(Protocol):
    """What a host expects from its transport layer."""

    def receive(self, packet: Packet) -> None: ...


class AccessLink(Protocol):
    """What a host's interface expects from its access link."""

    def send_from_host(self, packet: Packet) -> None: ...

    def host_detached(self) -> None: ...


IPChangeListener = Callable[[Optional[str], Optional[str]], Any]
"""Called with ``(old_ip, new_ip)``; either may be None (down / first up)."""


class Interface:
    """A single network interface: address, up/down state, access link."""

    __slots__ = ("host", "ip", "up", "link", "tx_dropped")

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.ip: Optional[str] = None
        self.up = False
        self.link: Optional[AccessLink] = None
        self.tx_dropped = 0

    def attach(self, link: AccessLink) -> None:
        self.link = link

    def transmit(self, packet: Packet) -> None:
        """Hand a packet to the access link; drops silently when down."""
        if not self.up or self.link is None:
            self.tx_dropped += 1
            return
        self.link.send_from_host(packet)

    def receive(self, packet: Packet) -> None:
        """Called by the access link when a packet arrives for this host."""
        if not self.up:
            return
        self.host.deliver(packet)


class Host:
    """A network endpoint: interface + Netfilter + transport handler."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interface = Interface(self)
        self.netfilter = Netfilter()
        self.transport: Optional[TransportHandler] = None
        #: packets this host dropped, by reason
        self.drops: Counter = Counter()
        self._ip_listeners: List[IPChangeListener] = []

    # ------------------------------------------------------------------
    # Addressing / lifecycle
    # ------------------------------------------------------------------
    @property
    def ip(self) -> Optional[str]:
        return self.interface.ip if self.interface.up else None

    def bring_up(self, ip: str) -> None:
        """Bring the interface up with ``ip`` and notify listeners."""
        old = self.interface.ip if self.interface.up else None
        self.interface.ip = ip
        self.interface.up = True
        if old != ip:
            self._notify(old, ip)

    def take_down(self) -> Optional[str]:
        """Take the interface down; returns the address it held, if any."""
        old = self.ip
        self.interface.up = False
        self.interface.ip = None
        if old is not None:
            self._notify(old, None)
        return old

    def on_ip_change(self, listener: IPChangeListener) -> None:
        """Register for ``(old_ip, new_ip)`` notifications."""
        self._ip_listeners.append(listener)

    def _notify(self, old: Optional[str], new: Optional[str]) -> None:
        for listener in list(self._ip_listeners):
            listener(old, new)

    # ------------------------------------------------------------------
    # Packet path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` through egress filters and the interface."""
        interface = self.interface
        if not interface.up or interface.ip is None:  # self.ip, inlined
            self.drops["interface_down"] += 1
            return
        egress = self.netfilter.egress
        if not egress._filters:  # empty chain: skip the stream machinery
            # interface.transmit(), inlined (the interface is up here).
            link = interface.link
            if link is None:
                interface.tx_dropped += 1
            else:
                link.send_from_host(packet)
            return
        for out in egress.apply(packet):
            interface.transmit(out)

    def deliver(self, packet: Packet) -> None:
        """Run ingress filters and hand survivors to the transport layer."""
        if self.transport is None:
            self.drops["no_transport"] += 1
            return
        ingress = self.netfilter.ingress
        if not ingress._filters:  # empty chain: skip the stream machinery
            self.transport.receive(packet)
            return
        for pkt in ingress.apply(packet):
            self.transport.receive(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, ip={self.ip!r})"
