"""The Internet core: a latency cloud routing packets between access links.

The paper's testbed (Figure 10) places each client behind a wireless
emulator, with all peers meeting "in the Internet".  We model the core as
over-provisioned — packets only queue at access links — with a configurable
one-way core delay.  Routing is by destination address; packets addressed to
a released address (a handed-off mobile host) are unroutable and dropped,
which is what strands a fixed peer's TCP connections when its mobile
correspondent moves.
"""

from __future__ import annotations

from typing import Dict, Protocol

from ..sim import Simulator
from .packet import Packet


class Attachment(Protocol):
    """What the core needs from an access link: downstream delivery."""

    def deliver_from_core(self, packet: Packet) -> None: ...


class Internet:
    """Address-keyed routing between access links with fixed core delay."""

    def __init__(self, sim: Simulator, core_delay: float = 0.02) -> None:
        if core_delay < 0:
            raise ValueError("core_delay must be non-negative")
        self.sim = sim
        self.core_delay = core_delay
        self._routes: Dict[str, Attachment] = {}
        #: packets dropped for want of a route (sent to a released address)
        self.unroutable = 0
        self.packets_forwarded = 0

    # ------------------------------------------------------------------
    # Route management (called on attach / IP change)
    # ------------------------------------------------------------------
    def register(self, ip: str, attachment: Attachment) -> None:
        """Bind ``ip`` to an access link.  Re-binding an address is an error
        (two live hosts may not share one)."""
        existing = self._routes.get(ip)
        if existing is not None and existing is not attachment:
            raise ValueError(f"address {ip} already routed")
        self._routes[ip] = attachment

    def unregister(self, ip: str) -> None:
        """Remove the route for ``ip`` (idempotent)."""
        self._routes.pop(ip, None)

    def has_route(self, ip: str) -> bool:
        return ip in self._routes

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def forward(self, packet: Packet) -> None:
        """Route a packet arriving from an access link toward its target."""
        attachment = self._routes.get(packet.dst)
        if attachment is None:
            self.unroutable += 1
            return
        self.packets_forwarded += 1
        if self.core_delay > 0:
            # Hot path (once per forwarded packet), never cancelled: the
            # kernel's handle-free push, no schedule() wrapper frame.
            sim = self.sim
            sim._post(sim._now + self.core_delay, attachment.deliver_from_core, (packet,))
        else:
            attachment.deliver_from_core(packet)
