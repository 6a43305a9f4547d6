"""Packet tracing: a tcpdump-style recorder built on Netfilter hooks.

Attach a :class:`PacketTrace` to any host to capture its ingress/egress
traffic without altering it.  Traces answer the questions that come up when
debugging protocol behaviour in this library ("did the DUPACKs go out
pure?", "what fraction of ACKs were piggybacked?") and power assertions in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim import Simulator
from .host import Host
from .netfilter import EGRESS, INGRESS
from .packet import Packet


@dataclass(frozen=True)
class TraceRecord:
    """One captured packet."""

    time: float
    direction: str  # "egress" | "ingress"
    src: str
    dst: str
    size_bytes: int
    summary: str

    def __str__(self) -> str:
        arrow = "->" if self.direction == EGRESS else "<-"
        return (
            f"{self.time:10.4f} {arrow} {self.src} > {self.dst} "
            f"{self.size_bytes:5d}B  {self.summary}"
        )


def _describe(packet: Packet) -> str:
    payload = packet.payload
    describe = getattr(payload, "flag_names", None)
    if describe is not None:  # a TCP segment
        parts = [payload.flag_names()]
        parts.append(f"seq={payload.seq}")
        if payload.ack is not None:
            parts.append(f"ack={payload.ack}")
        if payload.payload_len:
            parts.append(f"len={payload.payload_len}")
        if getattr(payload, "sack_blocks", ()):
            parts.append(f"sack={list(payload.sack_blocks)}")
        return " ".join(parts)
    return type(payload).__name__


class PacketTrace:
    """Capture a host's traffic through its Netfilter hooks."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        keep: Optional[Callable[[Packet], bool]] = None,
        max_records: int = 100_000,
    ) -> None:
        self.sim = sim
        self.host = host
        self.records: List[TraceRecord] = []
        self.dropped_records = 0
        self._keep = keep
        self._max = max_records
        self._filters = []
        for direction in (EGRESS, INGRESS):
            pkt_filter = self._make_filter(direction)
            host.netfilter.chain(direction).register(pkt_filter)
            self._filters.append((direction, pkt_filter))
        self._detached = False

    def _make_filter(self, direction: str):
        def tap(packet: Packet):
            if self._keep is None or self._keep(packet):
                if len(self.records) < self._max:
                    self.records.append(
                        TraceRecord(
                            time=self.sim.now,
                            direction=direction,
                            src=packet.src,
                            dst=packet.dst,
                            size_bytes=packet.size_bytes,
                            summary=_describe(packet),
                        )
                    )
                else:
                    self.dropped_records += 1
            return None  # observe only, never modify

        return tap

    def detach(self) -> None:
        """Stop capturing (idempotent)."""
        if self._detached:
            return
        self._detached = True
        for direction, pkt_filter in self._filters:
            self.host.netfilter.chain(direction).unregister(pkt_filter)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def egress(self) -> List[TraceRecord]:
        return [r for r in self.records if r.direction == EGRESS]

    def ingress(self) -> List[TraceRecord]:
        return [r for r in self.records if r.direction == INGRESS]

    def matching(self, needle: str) -> List[TraceRecord]:
        """Records whose summary contains ``needle``."""
        return [r for r in self.records if needle in r.summary]

    def bytes_by_direction(self) -> dict:
        out = {EGRESS: 0, INGRESS: 0}
        for record in self.records:
            out[record.direction] += record.size_bytes
        return out

    def dump(self, limit: int = 50) -> str:
        """A printable, tcpdump-flavoured listing of the first records."""
        lines = [str(r) for r in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more records")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.records)
