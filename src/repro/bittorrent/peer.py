"""One peer-wire connection: handshake, choke/interest state, requests.

A :class:`PeerConnection` wraps a TCP connection and implements the
BitTorrent peer protocol against it.  The owning client supplies policy
(piece selection, choking, rate limiting); this class keeps the per-peer
protocol state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..obs.metrics import WindowRateMeter
from ..tcp.connection import TCPConnection
from .bitfield import Bitfield
from .messages import (
    BitfieldMessage,
    Choke,
    Handshake,
    Have,
    Interested,
    KeepAlive,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)

if TYPE_CHECKING:  # pragma: no cover
    from .client import BitTorrentClient

BlockKey = Tuple[int, int]

#: Seconds of history behind a connection's upload and download rates.
RATE_WINDOW = 10.0


class PeerConnection:
    """Protocol state for one remote peer."""

    def __init__(
        self,
        client: "BitTorrentClient",
        tcp: TCPConnection,
        initiated: bool,
    ) -> None:
        self.client = client
        self.tcp = tcp
        self.initiated = initiated
        self.sim = client.sim
        self.peer_id: Optional[str] = None
        self.remote_ip = tcp.remote_ip
        self.remote_port = tcp.remote_port

        self.am_choking = True
        self.am_interested = False
        self.peer_choking = True
        self.peer_interested = False

        self.peer_bitfield = Bitfield(client.torrent.num_pieces)
        self._bitfield_counted = False
        self.handshake_sent = False
        self.handshake_received = False

        self._download_meter = self._upload_meter = None  # built on first use
        self.outstanding: Dict[BlockKey, float] = {}  # our pending requests
        self.blocks_downloaded = 0
        self.closed = False
        self.close_reason: Optional[str] = None
        self.last_sent = self.sim.now
        self.keepalives_sent = 0

        tcp.on_established = self._on_established
        tcp.on_message = self._on_message
        tcp.on_close = self._on_close
        if tcp.established:
            self._on_established()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _new_meter(self) -> WindowRateMeter:
        """A connection that dies in the handshake never needs one."""
        sim = self.sim
        return WindowRateMeter(clock=lambda: sim.now, window=RATE_WINDOW)

    @property
    def download_meter(self) -> WindowRateMeter:
        """Sliding-window rate of blocks received from this peer."""
        if self._download_meter is None:
            self._download_meter = self._new_meter()
        return self._download_meter

    @property
    def upload_meter(self) -> WindowRateMeter:
        """Sliding-window rate of blocks sent to this peer."""
        if self._upload_meter is None:
            self._upload_meter = self._new_meter()
        return self._upload_meter

    @property
    def ready(self) -> bool:
        """Handshake exchanged in both directions."""
        return self.handshake_sent and self.handshake_received

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerConnection({self.client.peer_id!r} <-> {self.peer_id!r}, "
            f"amC={self.am_choking} amI={self.am_interested} "
            f"pC={self.peer_choking} pI={self.peer_interested})"
        )

    # ------------------------------------------------------------------
    # Outgoing protocol actions
    # ------------------------------------------------------------------
    def _send(self, message) -> None:
        """Transmit a wire message, tracking activity for keep-alives."""
        self.last_sent = self.sim._now
        self.tcp.send_message(message)

    def send_handshake(self) -> None:
        if self.handshake_sent or self.closed:
            return
        self.handshake_sent = True
        self._send(Handshake(self.client.torrent.info_hash, self.client.peer_id))
        bitfield = self.client.manager.bitfield
        if not bitfield.empty:
            self._send(BitfieldMessage(bitfield))

    def set_choking(self, choking: bool) -> None:
        """Transition our choke state toward the peer (idempotent)."""
        if self.closed or choking == self.am_choking:
            return
        self.am_choking = choking
        self._send(Choke() if choking else Unchoke())
        if choking:
            self.client.drop_uploads_for(self)

    def update_interest(self) -> None:
        """Recompute and signal whether we want anything this peer has."""
        if self.closed or not (self.handshake_sent and self.handshake_received):
            return  # not self.ready, inlined: runs on every HAVE
        interested = self.peer_bitfield.has_piece_other_is_missing(
            self.client.manager.bitfield
        )
        if interested != self.am_interested:
            self.am_interested = interested
            self._send(Interested() if interested else NotInterested())
            if not interested:
                self._release_outstanding()

    def send_request(self, index: int, begin: int, length: int) -> None:
        self.outstanding[(index, begin)] = self.sim.now
        self._send(Request(index, begin, length))

    def send_piece(self, index: int, begin: int, length: int) -> None:
        self._send(Piece(index, begin, length))
        self.upload_meter.add(length)
        self.client.note_uploaded(self, length)

    def send_have(self, index: int) -> None:
        if not self.closed and self.ready:
            self._send(Have(index))

    def send_keepalive(self) -> None:
        if not self.closed and self.tcp.established:
            self.keepalives_sent += 1
            self._send(KeepAlive())

    def close(self, reason: str = "closed") -> None:
        if self.closed:
            return
        self.tcp.abort(reason)

    # ------------------------------------------------------------------
    # TCP callbacks
    # ------------------------------------------------------------------
    def _on_established(self) -> None:
        if self.initiated:
            self.send_handshake()

    def _on_close(self, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        self.close_reason = reason
        self._release_outstanding()
        if self._bitfield_counted:
            self.client.availability_remove(self.peer_bitfield)
            self._bitfield_counted = False
        self.client.peer_disconnected(self)

    def _on_message(self, message: object) -> None:
        if self.closed:
            return
        if isinstance(message, Handshake):
            self._on_handshake(message)
        elif isinstance(message, BitfieldMessage):
            self._on_bitfield(message)
        elif isinstance(message, Have):
            self._on_have(message)
        elif isinstance(message, Interested):
            self.peer_interested = True
            self.client.peer_became_interested(self)
        elif isinstance(message, NotInterested):
            self.peer_interested = False
        elif isinstance(message, Choke):
            self.peer_choking = True
            self._release_outstanding()
        elif isinstance(message, Unchoke):
            self.peer_choking = False
            self.client.fill_requests(self)
        elif isinstance(message, Request):
            self._on_request(message)
        elif isinstance(message, Piece):
            self._on_piece(message)
        elif isinstance(message, KeepAlive):
            pass

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _on_handshake(self, handshake: Handshake) -> None:
        if handshake.info_hash != self.client.torrent.info_hash:
            self.close("wrong_info_hash")
            return
        self.handshake_received = True
        self.peer_id = handshake.peer_id
        if not self.handshake_sent:
            self.send_handshake()
        if not self.client.register_peer(self):
            return  # duplicate or self-connection; client closed us
        self.update_interest()

    def _on_bitfield(self, message: BitfieldMessage) -> None:
        if message.bitfield.size != self.peer_bitfield.size:
            self.close("bad_bitfield")
            return
        if self._bitfield_counted:
            self.client.availability_remove(self.peer_bitfield)
        self.peer_bitfield = message.bitfield.copy()
        self.client.availability_add(self.peer_bitfield)
        self._bitfield_counted = True
        self.update_interest()
        if not self.peer_choking:
            self.client.fill_requests(self)

    def _on_have(self, message: Have) -> None:
        if not (0 <= message.index < self.peer_bitfield.size):
            self.close("bad_have")
            return
        if not self.peer_bitfield.has(message.index):
            self.peer_bitfield.set(message.index)
            if not self._bitfield_counted:
                # peer sent no initial bitfield (started empty)
                self.client.availability_add(Bitfield(self.peer_bitfield.size))
                self._bitfield_counted = True
            self.client.availability_increment(message.index)
        self.update_interest()
        if not self.peer_choking and self.am_interested:
            self.client.fill_requests(self)

    def _on_request(self, request: Request) -> None:
        if self.am_choking:
            return  # stale request crossing our CHOKE; silently ignored
        if not self.client.manager.have_piece(request.index):
            return
        self.client.queue_upload(self, request)

    def _on_piece(self, piece: Piece) -> None:
        key = piece.block_key
        self.outstanding.pop(key, None)
        self.download_meter.add(piece.length)
        self.blocks_downloaded += 1
        self.client.block_received(self, piece)

    # ------------------------------------------------------------------
    def _release_outstanding(self) -> None:
        for index, begin in list(self.outstanding):
            self.client.manager.release_request(index, begin)
        self.outstanding.clear()
