"""The network-layer packet.

A :class:`Packet` carries one transport payload (a TCP segment in this
library).  Sizes matter here: the wireless bit-error model converts a bit
error rate into a per-packet loss probability that grows with packet length,
which is the root cause of the paper's piggybacked-ACK pathology (§3.2).
"""

from __future__ import annotations

from typing import Any

IP_HEADER_BYTES = 20
"""IPv4 header, no options."""


class Packet:
    """An IP packet: addressing plus a transport payload.

    The payload must expose ``wire_size`` (transport header + data bytes).
    """

    __slots__ = ("src", "dst", "payload", "size_bytes")

    def __init__(self, src: str, dst: str, payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        # Total on-the-wire size: IP header plus transport payload.
        # Precomputed — payloads are immutable once wrapped, and size is
        # read on every enqueue/serve/loss-draw along the path.
        self.size_bytes = IP_HEADER_BYTES + int(payload.wire_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.src} -> {self.dst}, "
            f"{self.size_bytes}B, {self.payload!r})"
        )


def loss_probability(ber: float, size_bytes: int) -> float:
    """Per-packet loss probability for a given bit error rate and length.

    ``PER = 1 - (1 - BER)^(8 * size)`` — the standard independent-bit-error
    model.  Longer packets are likelier to be corrupted, which is why ACKs
    piggybacked on data packets are lost more often than 40-byte pure ACKs.
    """
    if ber <= 0.0:
        return 0.0
    if ber >= 1.0:
        return 1.0
    return 1.0 - (1.0 - ber) ** (8 * size_bytes)


class DropRecord:
    """A recorded packet drop: where, when, and why."""

    __slots__ = ("time", "location", "reason", "size_bytes")

    def __init__(self, time: float, location: str, reason: str, size_bytes: int) -> None:
        self.time = time
        self.location = location
        self.reason = reason
        self.size_bytes = size_bytes
