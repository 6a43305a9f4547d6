"""BitTorrent: metainfo, tracker, peer wire protocol, choking, client."""

from .bitfield import Bitfield
from .choker import ChokerDriver, TitForTatChoker
from .client import BitTorrentClient, ClientConfig, default_restart_policy
from .ledger import PeerLedger
from .messages import (
    AnnounceRequest,
    AnnounceResponse,
    BitfieldMessage,
    Choke,
    EVENT_COMPLETED,
    EVENT_PERIODIC,
    EVENT_STARTED,
    EVENT_STOPPED,
    Handshake,
    Have,
    Interested,
    KeepAlive,
    NotInterested,
    Piece,
    Request,
    TrackerError,
    Unchoke,
)
from .metainfo import BLOCK_LENGTH, DEFAULT_PIECE_LENGTH, Torrent, make_torrent
from .peer import PeerConnection
from .piece_manager import PieceManager
from .rate import TokenBucket
from .selection import (
    HoldSelector,
    PieceSelector,
    RandomSelector,
    RarestFirstSelector,
    SelectionContext,
    SequentialSelector,
    make_selector,
    register_selector,
    selector_names,
)
from .tracker import PeerRecord, Tracker

__all__ = [
    "Bitfield",
    "ChokerDriver",
    "TitForTatChoker",
    "BitTorrentClient",
    "ClientConfig",
    "default_restart_policy",
    "PeerLedger",
    "AnnounceRequest",
    "AnnounceResponse",
    "BitfieldMessage",
    "Choke",
    "EVENT_COMPLETED",
    "EVENT_PERIODIC",
    "EVENT_STARTED",
    "EVENT_STOPPED",
    "Handshake",
    "Have",
    "Interested",
    "KeepAlive",
    "NotInterested",
    "Piece",
    "Request",
    "TrackerError",
    "Unchoke",
    "BLOCK_LENGTH",
    "DEFAULT_PIECE_LENGTH",
    "Torrent",
    "make_torrent",
    "PeerConnection",
    "PieceManager",
    "TokenBucket",
    "HoldSelector",
    "PieceSelector",
    "RandomSelector",
    "RarestFirstSelector",
    "SelectionContext",
    "SequentialSelector",
    "make_selector",
    "register_selector",
    "selector_names",
    "PeerRecord",
    "Tracker",
]
