"""Age-based Manipulation (AM) — wP2P §4.1.

A Netfilter-style packet filter on the mobile host that adapts the
bi-directional TCP stream to the wireless leg:

* **YOUNG connections** (remote sender's congestion window below γ ≈ 6 MSS ≈
  9 KB): any new ACK piggybacked on an outgoing data packet is *decoupled* —
  a 40-byte pure ACK is injected ahead of the data packet, so the ACK
  survives bit errors that would kill the long data frame.  Small windows
  are where ACK losses actually hurt throughput.
* **MATURE connections**: during a DUPACK burst, one in every
  ``DUPACK_MODULUS`` (paper: 4) outgoing pure DUPACKs is dropped, so the
  pure-ACK flood TCP's never-piggyback-DUPACKs rule mandates does not keep
  the wireless leg as loaded after congestion as before it (§3.2).

The remote congestion window is estimated exactly as the paper's prototype
does: "the amount of data sent by the remote peer in every round trip time
... as an estimate of that peer's TCP congestion window for the next rtt".
Everything here is local to the mobile host and invisible to fixed peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.host import Host
from ..net.packet import Packet
from ..sim import Simulator
from ..tcp.segment import ACK, FIN, RST, SYN, TCPSegment

YOUNG = "young"
MATURE = "mature"

FlowKey = Tuple[int, str, int]  # (local port, remote ip, remote port)

DEFAULT_GAMMA_BYTES = 9_000
"""The paper's threshold: ~6 full packets (γ = 6, per [10])."""

RTT_ESTIMATE = 0.2
"""Seconds per measurement round of the remote-window estimate."""

DUPACK_MODULUS = 4
"""A MATURE flow drops one in this many outgoing pure DUPACKs (paper: 4)."""


@dataclass
class _FlowState:
    """Per-connection state the AM module maintains."""

    window_start: float = 0.0
    window_bytes: int = 0
    cwnd_estimate: int = 0
    status: str = YOUNG
    last_pure_ack: Optional[int] = None
    dupack_count: int = 0
    last_egress_ack: int = -1


class AgeBasedManipulation:
    """The AM egress/ingress filter pair for one mobile host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        gamma_bytes: int = DEFAULT_GAMMA_BYTES,
    ) -> None:
        if gamma_bytes <= 0:
            raise ValueError("gamma_bytes must be positive")
        self.sim = sim
        self.host = host
        self.gamma_bytes = gamma_bytes
        self._flows: Dict[FlowKey, _FlowState] = {}
        self._installed = False

        # Statistics.
        self.acks_decoupled = 0
        self.dupacks_dropped = 0
        self.dupacks_seen = 0

        audit = sim.audit
        if audit is not None:
            audit.register_am(self)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Register on the host's Netfilter hooks (idempotent)."""
        if self._installed:
            return
        self.host.netfilter.ingress.register(self._ingress)
        self.host.netfilter.egress.register(self._egress)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.host.netfilter.ingress.unregister(self._ingress)
        self.host.netfilter.egress.unregister(self._egress)
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    def flow_status(self, key: FlowKey) -> str:
        flow = self._flows.get(key)
        return flow.status if flow is not None else YOUNG

    # ------------------------------------------------------------------
    # Ingress: estimate the remote sender's congestion window.
    # ------------------------------------------------------------------
    def _ingress(self, packet: Packet) -> Optional[List[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return None
        if segment.has(RST) or segment.has(FIN):
            self._flows.pop((segment.dst_port, packet.src, segment.src_port), None)
            return None
        if segment.payload_len <= 0:
            return None
        key = (segment.dst_port, packet.src, segment.src_port)
        flow = self._flows.get(key)
        now = self.sim.now
        if flow is None:
            flow = _FlowState(window_start=now)
            self._flows[key] = flow
        if now - flow.window_start >= RTT_ESTIMATE:
            flow.cwnd_estimate = flow.window_bytes
            status = YOUNG if flow.cwnd_estimate < self.gamma_bytes else MATURE
            if status != flow.status and self.sim.trace.enabled:
                self.sim.trace.event(
                    "wp2p", "am_state", host=self.host.name,
                    flow=f"{key[0]}<-{key[1]}:{key[2]}",
                    status=status, cwnd_estimate=flow.cwnd_estimate,
                )
            flow.status = status
            flow.window_start = now
            flow.window_bytes = 0
        flow.window_bytes += segment.payload_len
        return None

    # ------------------------------------------------------------------
    # Egress: decouple piggybacked ACKs (YOUNG) / thin DUPACKs (MATURE).
    # ------------------------------------------------------------------
    def _egress(self, packet: Packet) -> Optional[List[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return None
        if not segment.has(ACK) or segment.ack is None or segment.has(SYN) or segment.has(RST):
            return None
        key = (segment.src_port, packet.dst, segment.dst_port)
        flow = self._flows.get(key)
        if flow is None:
            flow = _FlowState(window_start=self.sim.now)
            self._flows[key] = flow

        if segment.payload_len > 0:
            # Piggybacked ACK on a data packet.
            if flow.status == YOUNG and segment.ack > flow.last_egress_ack:
                flow.last_egress_ack = segment.ack
                self.acks_decoupled += 1
                if self.sim.trace.enabled:
                    self.sim.trace.event(
                        "wp2p", "am_decouple", host=self.host.name,
                        ack=segment.ack, total=self.acks_decoupled,
                    )
                pure = TCPSegment(
                    segment.src_port, segment.dst_port, segment.seq,
                    segment.ack, ACK, 0, (), segment.rwnd,
                )
                extra = Packet(packet.src, packet.dst, pure)
                return [extra, packet]
            flow.last_egress_ack = max(flow.last_egress_ack, segment.ack)
            return None

        # Pure ACK path: detect DUPACKs (same cumulative ack repeated).
        if segment.is_pure_ack:
            if flow.last_pure_ack is not None and segment.ack == flow.last_pure_ack:
                self.dupacks_seen += 1
                if flow.status == MATURE:
                    flow.dupack_count += 1
                    if flow.dupack_count % DUPACK_MODULUS == 0:
                        self.dupacks_dropped += 1
                        if self.sim.trace.enabled:
                            self.sim.trace.event(
                                "wp2p", "am_drop_dupack", host=self.host.name,
                                ack=segment.ack, total=self.dupacks_dropped,
                            )
                        return []
            else:
                flow.dupack_count = 0
            flow.last_pure_ack = segment.ack
            flow.last_egress_ack = max(flow.last_egress_ack, segment.ack)
        return None
