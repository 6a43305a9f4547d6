"""Piece and block bookkeeping for a downloading client.

Tracks which pieces are complete, which blocks of in-progress pieces are
missing/requested/held, enforces the standard "finish partial pieces first"
priority, expires stale requests, and simulates hash verification (with an
optional corruption probability for failure-injection tests).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..coding.codec import ReplicationCodec
from ..summation import left_sum
from .bitfield import Bitfield
from .metainfo import Torrent
from .selection import PieceSelector, SelectionContext

MISSING = 0
REQUESTED = 1
HAVE = 2

BlockKey = Tuple[int, int]  # (piece index, begin offset)


class _PartialPiece:
    """Block states for one in-progress piece."""

    __slots__ = ("index", "states", "offsets", "requested_at")

    def __init__(self, torrent: Torrent, index: int) -> None:
        self.index = index
        self.offsets = torrent.block_offsets(index)
        self.states = [MISSING] * len(self.offsets)
        self.requested_at: Dict[int, float] = {}

    def block_number(self, begin: int) -> Optional[int]:
        for n, (offset, _length) in enumerate(self.offsets):
            if offset == begin:
                return n
        return None

    @property
    def complete(self) -> bool:
        return all(s == HAVE for s in self.states)

    def first_available(self) -> Optional[int]:
        for n, state in enumerate(self.states):
            if state == MISSING:
                return n
        return None


class PieceManager:
    """Download-side state for one torrent at one client."""

    def __init__(
        self,
        torrent: Torrent,
        complete: bool = False,
        initial_pieces: Optional[Iterable[int]] = None,
        corrupt_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        trace=None,
        owner: str = "",
        codec=None,
    ) -> None:
        self.torrent = torrent
        # Optional structured tracing (repro.obs.tracing.TraceBus); the
        # owning client wires its simulator's bus in so piece completions
        # and hash failures land in the cross-layer event log.
        self._trace = trace
        self._owner = owner
        if complete:
            self.bitfield = Bitfield.full(torrent.num_pieces)
        else:
            self.bitfield = Bitfield(torrent.num_pieces, have=initial_pieces or ())
        self._partials: Dict[int, _PartialPiece] = {}
        self.corrupt_probability = corrupt_probability
        self._rng = rng or random.Random(0)
        self.bytes_completed = left_sum(
            torrent.piece_size(i) for i in self.bitfield.indices()
        )
        self.duplicate_blocks = 0
        self.hash_failures = 0
        self.completion_order: List[int] = []
        # Content-codec seam (repro.coding).  A trivial codec keeps every
        # hot path below on its historical fast branch (``_grouped is
        # None``) — no group bookkeeping, no extra RNG draws, and cell
        # digests byte-identical to the pre-codec era.  A grouped codec
        # adds O(1)-per-piece group accounting: the content is complete
        # when every k-of-n group is decodable, not when the bitfield is
        # full.
        self.codec = codec if codec is not None else ReplicationCodec(torrent)
        self._grouped = None if self.codec.trivial else self.codec
        if self._grouped is not None:
            counts = self._grouped.group_counts(self.bitfield)
            self._group_have = counts
            self._decodable = [
                count >= self._grouped.required(group)
                for group, count in enumerate(counts)
            ]
            self._decodable_count = left_sum(self._decodable)
            self.source_bytes_decoded = left_sum(
                self._grouped.group_source_bytes(group)
                for group, ok in enumerate(self._decodable)
                if ok
            )
            self.group_decode_order: List[int] = []

    # ------------------------------------------------------------------
    # Fault hook (repro.chaos)
    # ------------------------------------------------------------------
    def set_corrupt_probability(self, probability: float) -> None:
        """Change the per-piece corruption probability mid-run (chaos
        corruption bursts set it for a window, then restore it)."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("corrupt_probability must be in [0, 1)")
        self.corrupt_probability = probability

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        if self._grouped is None:
            return self.bitfield.complete
        return self._decodable_count == self._grouped.num_groups

    @property
    def progress(self) -> float:
        """Fraction of the file's bytes verified complete."""
        return self.bytes_completed / self.torrent.total_size

    @property
    def content_progress(self) -> float:
        """Fraction of the *source* payload recoverable right now.

        Equals :attr:`progress` under replication; under a grouped codec
        it is the decoded-group payload over the source size.
        """
        if self._grouped is None:
            return self.progress
        return self.source_bytes_decoded / self._grouped.source_size

    def have_piece(self, index: int) -> bool:
        return self.bitfield.has(index)

    def missing_pieces(self) -> List[int]:
        return list(self.bitfield.missing())

    @property
    def partial_pieces(self) -> List[int]:
        return list(self._partials)

    # ------------------------------------------------------------------
    # Request generation
    # ------------------------------------------------------------------
    def next_request(
        self,
        peer_bitfield: Bitfield,
        selector: PieceSelector,
        ctx: SelectionContext,
    ) -> Optional[Tuple[int, int, int]]:
        """Choose the next ``(index, begin, length)`` to request from a peer.

        Strict priority: finish an in-progress piece the peer holds before
        starting a new one (standard client behaviour — it turns partial
        pieces into advertisable HAVEs quickly).
        """
        for partial in self._partials.values():
            if peer_bitfield.has(partial.index):
                block = partial.first_available()
                if block is not None:
                    begin, length = partial.offsets[block]
                    return partial.index, begin, length

        if self._grouped is None:
            candidates = [
                i
                for i in self.bitfield.missing()
                if i not in self._partials and peer_bitfield.has(i)
            ]
        else:
            # Coded content: never *start* a piece whose group already
            # decodes — those coded pieces are pure redundancy.  (Pieces
            # already partial when their group decoded are finished
            # normally; only a few in-flight blocks ride out.)
            decodable = self._decodable
            n = self._grouped.n
            candidates = [
                i
                for i in self.bitfield.missing()
                if i not in self._partials
                and peer_bitfield.has(i)
                and not decodable[i // n]
            ]
        choice = selector.choose(candidates, ctx)
        if choice is None:
            return None
        partial = _PartialPiece(self.torrent, choice)
        self._partials[choice] = partial
        begin, length = partial.offsets[0]
        return choice, begin, length

    def mark_requested(self, index: int, begin: int, now: float) -> None:
        partial = self._partials.get(index)
        if partial is None:
            return
        block = partial.block_number(begin)
        if block is not None and partial.states[block] == MISSING:
            partial.states[block] = REQUESTED
            partial.requested_at[block] = now

    def release_request(self, index: int, begin: int) -> None:
        """Return a requested block to MISSING (peer died / choked us)."""
        partial = self._partials.get(index)
        if partial is None:
            return
        block = partial.block_number(begin)
        if block is not None and partial.states[block] == REQUESTED:
            partial.states[block] = MISSING
            partial.requested_at.pop(block, None)

    def expire_requests(self, now: float, timeout: float) -> List[BlockKey]:
        """Release requests older than ``timeout``; returns released keys."""
        released: List[BlockKey] = []
        for partial in self._partials.values():
            for block, at in list(partial.requested_at.items()):
                if now - at >= timeout:
                    partial.states[block] = MISSING
                    del partial.requested_at[block]
                    released.append((partial.index, partial.offsets[block][0]))
        return released

    # ------------------------------------------------------------------
    # Block arrival
    # ------------------------------------------------------------------
    def receive_block(self, index: int, begin: int, length: int) -> Optional[int]:
        """Record a received block.

        Returns the piece index if this block completed (and verified) the
        piece, else None.  A corrupted piece is reset to MISSING entirely,
        as real clients re-download failed pieces.
        """
        if self.bitfield.has(index):
            self.duplicate_blocks += 1
            return None
        partial = self._partials.get(index)
        if partial is None:
            # unsolicited block for a piece we never started: accept it
            partial = _PartialPiece(self.torrent, index)
            self._partials[index] = partial
        block = partial.block_number(begin)
        if block is None:
            return None
        if partial.states[block] == HAVE:
            self.duplicate_blocks += 1
            return None
        partial.states[block] = HAVE
        partial.requested_at.pop(block, None)
        if not partial.complete:
            return None
        # Piece complete: verify.
        del self._partials[index]
        if self.corrupt_probability > 0 and self._rng.random() < self.corrupt_probability:
            self.hash_failures += 1
            if self._trace is not None and self._trace.enabled:
                self._trace.event(
                    "bittorrent", "hash_failure", client=self._owner, piece=index
                )
            return None
        self.bitfield.set(index)
        self.bytes_completed += self.torrent.piece_size(index)
        self.completion_order.append(index)
        if self._trace is not None and self._trace.enabled:
            self._trace.event(
                "bittorrent", "piece_complete", client=self._owner,
                piece=index, progress=round(self.progress, 4),
            )
        if self._grouped is not None:
            self._note_group_progress(index)
        return index

    def _note_group_progress(self, index: int) -> None:
        """Grouped-codec bookkeeping for one newly verified piece."""
        grouped = self._grouped
        group = index // grouped.n
        count = self._group_have[group] + 1
        self._group_have[group] = count
        if not self._decodable[group] and count >= grouped.required(group):
            self._decodable[group] = True
            self._decodable_count += 1
            self.source_bytes_decoded += grouped.group_source_bytes(group)
            self.group_decode_order.append(group)
            if self._trace is not None and self._trace.enabled:
                self._trace.event(
                    "coding", "group_decodable", client=self._owner,
                    group=group, decodable=self._decodable_count,
                    groups=grouped.num_groups,
                    content_progress=round(self.content_progress, 4),
                )

    # ------------------------------------------------------------------
    def outstanding_requests(self) -> List[BlockKey]:
        out: List[BlockKey] = []
        for partial in self._partials.values():
            for block in partial.requested_at:
                out.append((partial.index, partial.offsets[block][0]))
        return out
