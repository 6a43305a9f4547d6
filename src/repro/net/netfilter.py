"""Netfilter-style packet hook chains.

The paper implements wP2P's Age-based Manipulation "with the assistance of
[the] Netfilter utility" — a module that inspects every packet the mobile
host transmits and may rewrite, duplicate, or drop it.  This module provides
that extension point: an ordered chain of filters on a host's egress and
ingress paths.

A filter is a callable ``filter(packet) -> verdict`` where the verdict is:

* ``None`` — pass the packet through unchanged;
* a list of packets — replace the packet with that list, in order
  (an empty list drops it; ``[extra, packet]`` injects ``extra`` ahead).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .packet import Packet

FilterVerdict = Optional[Sequence[Packet]]
PacketFilter = Callable[[Packet], FilterVerdict]

EGRESS = "egress"
INGRESS = "ingress"


class HookChain:
    """An ordered chain of packet filters for one direction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._filters: List[PacketFilter] = []

    def register(self, pkt_filter: PacketFilter) -> None:
        """Append a filter to the chain (runs after existing filters)."""
        self._filters.append(pkt_filter)

    def unregister(self, pkt_filter: PacketFilter) -> None:
        """Remove a filter; raises ValueError if absent."""
        self._filters.remove(pkt_filter)

    def apply(self, packet: Packet) -> List[Packet]:
        """Run ``packet`` through the chain; returns the surviving packets.

        Packets a filter injects are themselves subject to the *remaining*
        filters in the chain, matching how a packet traverses successive
        Netfilter hooks.
        """
        stream: List[Packet] = [packet]
        for pkt_filter in self._filters:
            next_stream: List[Packet] = []
            for pkt in stream:
                verdict = pkt_filter(pkt)
                if verdict is None:
                    next_stream.append(pkt)
                else:
                    next_stream.extend(verdict)
            stream = next_stream
            if not stream:
                break
        return stream


class Netfilter:
    """Per-host egress + ingress hook chains."""

    def __init__(self) -> None:
        self.egress = HookChain(EGRESS)
        self.ingress = HookChain(INGRESS)
