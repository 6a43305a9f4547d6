"""Network substrate: packets, hosts, links, wireless cells, mobility."""

from .addressing import AddressAllocator
from .host import Host, Interface
from .internet import Internet
from .links import WiredAccessLink, attach_wired_host
from .mobility import MobilityController, disconnect_host, reconnect_host
from .netfilter import EGRESS, INGRESS, HookChain, Netfilter, PacketFilter
from .packet import IP_HEADER_BYTES, DropRecord, Packet, loss_probability
from .queues import DropTailQueue
from .wireless import MAC_OVERHEAD_BYTES, WirelessChannel, attach_wireless_host

__all__ = [
    "AddressAllocator",
    "Host",
    "Interface",
    "Internet",
    "WiredAccessLink",
    "attach_wired_host",
    "MobilityController",
    "disconnect_host",
    "reconnect_host",
    "EGRESS",
    "INGRESS",
    "HookChain",
    "Netfilter",
    "PacketFilter",
    "IP_HEADER_BYTES",
    "DropRecord",
    "Packet",
    "loss_probability",
    "DropTailQueue",
    "MAC_OVERHEAD_BYTES",
    "WirelessChannel",
    "attach_wireless_host",
]
