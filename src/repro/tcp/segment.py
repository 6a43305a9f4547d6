"""TCP segments.

Segments model the real header fields the paper's analysis depends on:

* sequence/ack numbers (cumulative ACKs),
* the ACK flag — set on **every** packet except the initial SYN, per the
  TCP specification the paper cites (§3.2 footnote 2),
* payload length, which with the 20-byte TCP + 20-byte IP headers gives the
  wire sizes the bit-error model acts on (a pure ACK is 40 bytes on the
  wire; an MSS data segment with a piggybacked ACK is 1500).

Payload bytes are not materialized.  Applications send *messages* (objects
with a ``wire_length``); the sender assigns each message a byte range in the
stream and attaches the message object to any segment that covers the
message's final byte, so the receiver can deliver whole messages in stream
order without simulating byte buffers.
"""

from __future__ import annotations

from typing import Optional, Tuple

TCP_HEADER_BYTES = 20
DEFAULT_MSS = 1460
"""Maximum segment size for a 1500-byte MTU path."""

SYN = 0x1
ACK = 0x2
FIN = 0x4
RST = 0x8

_FLAG_NAMES = {SYN: "SYN", ACK: "ACK", FIN: "FIN", RST: "RST"}


class TCPSegment:
    """One TCP segment.

    ``messages`` is a tuple of ``(end_seq, message)`` pairs for application
    messages whose last stream byte falls inside this segment's range.
    """

    __slots__ = (
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "payload_len",
        "messages",
        "rwnd",
        "sack_blocks",
        "wire_size",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: Optional[int],
        flags: int,
        payload_len: int = 0,
        messages: Tuple[Tuple[int, object], ...] = (),
        rwnd: int = 262144,
        sack_blocks: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        if payload_len < 0:
            raise ValueError("payload_len must be non-negative")
        if flags & ACK and ack is None:
            raise ValueError("ACK flag requires an ack number")
        if len(sack_blocks) > 4:
            raise ValueError("at most 4 SACK blocks fit in the options space")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_len = payload_len
        self.messages = messages
        self.rwnd = rwnd
        self.sack_blocks = sack_blocks
        # Bytes on the wire at the transport layer (header + payload),
        # fixed at construction: segments are never mutated.  SACK blocks
        # cost real option bytes (2 + 8 per block, RFC 2018), which
        # matters to the wireless bit-error model.
        options = (2 + 8 * len(sack_blocks)) if sack_blocks else 0
        self.wire_size = TCP_HEADER_BYTES + options + payload_len

    # ------------------------------------------------------------------
    @property
    def seq_span(self) -> int:
        """Sequence numbers consumed: payload plus one for SYN/FIN."""
        span = self.payload_len
        if self.flags & SYN:
            span += 1
        if self.flags & FIN:
            span += 1
        return span

    @property
    def end_seq(self) -> int:
        return self.seq + self.seq_span

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def is_pure_ack(self) -> bool:
        """True for a data-less ACK (no payload, no SYN/FIN/RST).

        SACK options do not change pure-ACK status: a DUPACK carrying SACK
        blocks is still a pure ACK for dupack counting."""
        return (
            self.flags == ACK
            and self.payload_len == 0
        )

    def flag_names(self) -> str:
        names = [name for bit, name in _FLAG_NAMES.items() if self.flags & bit]
        return "|".join(names) if names else "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCPSegment({self.src_port}->{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack} len={self.payload_len})"
        )


def pure_ack(
    src_port: int, dst_port: int, seq: int, ack: int, rwnd: int = 262144
) -> TCPSegment:
    """Build a 40-byte-on-the-wire pure acknowledgment segment."""
    return TCPSegment(src_port, dst_port, seq, ack, ACK, 0, (), rwnd)
