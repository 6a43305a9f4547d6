"""Torrent metainfo.

The simulated analogue of a ``.torrent`` file: content identity
(``info_hash``), piece geometry, and the tracker address.  Block layout
(16 KiB transfer blocks within pieces) matches the real protocol; the paper's
files use the BitTorrent default piece length of 256 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

BLOCK_LENGTH = 16_384
"""Transfer-block size used by all mainstream clients."""

DEFAULT_PIECE_LENGTH = 262_144
"""BitTorrent's default piece length (256 KiB), as in the paper (§3.6)."""


@dataclass(frozen=True)
class Torrent:
    """Immutable description of one shared file.

    ``tracker_ip`` points at the simulated tracker (which listens on
    :data:`~repro.bittorrent.tracker.TRACKER_PORT`); peers learn each
    other's addresses only through it, as in real BitTorrent.
    """

    info_hash: str
    name: str
    total_size: int
    piece_length: int = DEFAULT_PIECE_LENGTH
    tracker_ip: str = ""

    def __post_init__(self) -> None:
        if self.total_size <= 0:
            raise ValueError("total_size must be positive")
        if self.piece_length <= 0:
            raise ValueError("piece_length must be positive")
        if self.piece_length % BLOCK_LENGTH != 0 and self.piece_length > BLOCK_LENGTH:
            raise ValueError("piece_length must be a multiple of the block length")

    # ------------------------------------------------------------------
    @property
    def num_pieces(self) -> int:
        return (self.total_size + self.piece_length - 1) // self.piece_length

    def piece_size(self, index: int) -> int:
        """Size of piece ``index`` (the final piece may be short)."""
        self._check_index(index)
        if index < self.num_pieces - 1:
            return self.piece_length
        return self.total_size - self.piece_length * (self.num_pieces - 1)

    def blocks_in_piece(self, index: int) -> int:
        size = self.piece_size(index)
        block = min(BLOCK_LENGTH, self.piece_length)
        return (size + block - 1) // block

    def block_size(self, index: int, block: int) -> int:
        """Size of block ``block`` within piece ``index``."""
        size = self.piece_size(index)
        unit = min(BLOCK_LENGTH, self.piece_length)
        nblocks = self.blocks_in_piece(index)
        if not 0 <= block < nblocks:
            raise IndexError(f"block {block} out of range for piece {index}")
        if block < nblocks - 1:
            return unit
        return size - unit * (nblocks - 1)

    def block_offsets(self, index: int) -> List[Tuple[int, int]]:
        """``(begin, length)`` for every block of piece ``index``."""
        unit = min(BLOCK_LENGTH, self.piece_length)
        return [
            (b * unit, self.block_size(index, b))
            for b in range(self.blocks_in_piece(index))
        ]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_pieces:
            raise IndexError(f"piece {index} out of range (0..{self.num_pieces - 1})")


def make_torrent(
    name: str,
    total_size: int,
    piece_length: int = DEFAULT_PIECE_LENGTH,
    tracker_ip: str = "",
) -> Torrent:
    """Create a torrent whose synthetic info-hash names its content.

    As in real BitTorrent the info-hash covers the file description
    (name, size, piece geometry), not the tracker, so the same arguments
    give equal torrents in any process.
    """
    return Torrent(
        info_hash=f"ih-{name}-{total_size}-{piece_length}",
        name=name,
        total_size=total_size,
        piece_length=piece_length,
        tracker_ip=tracker_ip,
    )
