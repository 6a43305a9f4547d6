"""Peer-wire and tracker protocol messages.

Each message class reports its real BitTorrent wire size via
``wire_length`` so the TCP layer (and therefore the wireless bit-error and
airtime models) sees authentic byte counts:

========================  =======================================
message                   bytes on the stream
========================  =======================================
handshake                 68
keep-alive                4
choke/unchoke/(not)inter  5
have                      9
bitfield                  5 + ceil(num_pieces / 8)
request / cancel          17
piece                     13 + block payload
========================  =======================================

Tracker announces are modelled as compact request/response messages over
TCP, sized like the HTTP GET / bencoded reply they stand in for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .bitfield import Bitfield

HANDSHAKE_LENGTH = 68
HEADER_LENGTH = 5  # 4-byte length prefix + 1-byte message id


class PeerWireMessage:
    """Base class: every message knows its size on the TCP stream."""

    wire_length: int = HEADER_LENGTH


@dataclass(frozen=True)
class Handshake(PeerWireMessage):
    info_hash: str
    peer_id: str
    wire_length: int = HANDSHAKE_LENGTH


@dataclass(frozen=True)
class KeepAlive(PeerWireMessage):
    wire_length: int = 4


@dataclass(frozen=True)
class Choke(PeerWireMessage):
    wire_length: int = HEADER_LENGTH


@dataclass(frozen=True)
class Unchoke(PeerWireMessage):
    wire_length: int = HEADER_LENGTH


@dataclass(frozen=True)
class Interested(PeerWireMessage):
    wire_length: int = HEADER_LENGTH


@dataclass(frozen=True)
class NotInterested(PeerWireMessage):
    wire_length: int = HEADER_LENGTH


@dataclass(frozen=True)
class Have(PeerWireMessage):
    index: int
    wire_length: int = HEADER_LENGTH + 4


class BitfieldMessage(PeerWireMessage):
    """Snapshot of the sender's piece bitfield at connection start."""

    def __init__(self, bitfield: Bitfield) -> None:
        self.bitfield = bitfield.copy()
        self.wire_length = HEADER_LENGTH + bitfield.wire_bytes


@dataclass(frozen=True)
class Request(PeerWireMessage):
    index: int
    begin: int
    length: int
    wire_length: int = HEADER_LENGTH + 12


class Piece(PeerWireMessage):
    """A data block.  ``wire_length`` includes the block payload."""

    def __init__(self, index: int, begin: int, length: int) -> None:
        if length <= 0:
            raise ValueError("block length must be positive")
        self.index = index
        self.begin = begin
        self.length = length
        self.wire_length = HEADER_LENGTH + 8 + length

    @property
    def block_key(self) -> Tuple[int, int]:
        return (self.index, self.begin)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Piece({self.index}, {self.begin}, {self.length})"


# ----------------------------------------------------------------------
# Tracker protocol (stands in for HTTP announce)
# ----------------------------------------------------------------------

EVENT_STARTED = "started"
EVENT_STOPPED = "stopped"
EVENT_COMPLETED = "completed"
EVENT_PERIODIC = ""


@dataclass(frozen=True)
class AnnounceRequest:
    info_hash: str
    peer_id: str
    ip: str
    port: int
    uploaded: int = 0
    downloaded: int = 0
    left: int = 0
    event: str = EVENT_PERIODIC
    numwant: int = 50
    wire_length: int = 200  # typical HTTP GET announce size


@dataclass(frozen=True)
class AnnounceResponse:
    interval: float
    peers: Tuple[Tuple[str, int, str], ...]  # (ip, port, peer_id)
    complete: int = 0
    incomplete: int = 0

    @property
    def wire_length(self) -> int:
        # bencoded dict: ~60 bytes of framing + ~26 bytes per peer entry
        return 60 + 26 * len(self.peers)


@dataclass(frozen=True)
class TrackerError:
    reason: str
    wire_length: int = 80
