"""Content codecs: pluggable completion semantics for the piece pipeline.

A *content codec* decides what "having the content" means in terms of
verified pieces.  :class:`ReplicationCodec` is plain BitTorrent — every
piece is unique payload, the content is complete when the bitfield is
full.  :class:`GroupCodec` simulates k-of-n erasure coding in the style
of PeerDAS data-availability columns: consecutive groups of ``n`` coded
pieces each carry ``k`` pieces worth of source payload, and *any* ``k``
of the ``n`` reconstruct the group.  No Galois-field arithmetic is
performed — the simulation only needs group-completion semantics, piece
counts, and sizes.

Codecs are deliberately decoupled from :mod:`repro.bittorrent`: they
duck-type the ``Torrent`` they are bound to (``num_pieces``,
``piece_size``, ``total_size``), so this module imports nothing from the
protocol layer and can be used by the fluid tier and analysis code
alike.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..summation import left_sum

#: Default k-of-n geometry when a spec says just ``"group"``.
DEFAULT_K = 4
DEFAULT_N = 6

MODES = ("replication", "group")

#: A content spec as accepted from CLIs and APIs: a mode string
#: (``"replication"``, ``"group"``, ``"group:4/6"``), a JSON object
#: string, or a mapping.
ContentSpec = Union[str, Mapping[str, object]]


# ----------------------------------------------------------------------
# Spec parsing / canonicalisation
# ----------------------------------------------------------------------
def _parse_text(text: str) -> Mapping[str, object]:
    text = text.strip()
    if text.startswith("{"):
        value = json.loads(text)
        if not isinstance(value, dict):
            raise ValueError(f"content JSON must be an object, got {text!r}")
        return value
    if text == "replication":
        return {"mode": "replication"}
    if text == "group":
        return {"mode": "group"}
    if text.startswith("group:"):
        geometry = text[len("group:"):]
        try:
            k_text, n_text = geometry.split("/", 1)
            return {"mode": "group", "k": int(k_text), "n": int(n_text)}
        except ValueError:
            raise ValueError(
                f"bad group geometry {geometry!r} (expected K/N, e.g. group:4/6)"
            ) from None
    raise ValueError(
        f"unknown content spec {text!r} "
        f"(expected 'replication', 'group', 'group:K/N', or a JSON object)"
    )


def normalize_content(spec: ContentSpec) -> Dict[str, object]:
    """Canonicalise a content spec; raises ``ValueError`` on bad input.

    Returns ``{"mode": "replication"}`` or
    ``{"mode": "group", "k": K, "n": N}`` with validated geometry.
    """
    if isinstance(spec, str):
        spec = _parse_text(spec)
    if not isinstance(spec, Mapping):
        raise ValueError(f"content spec must be a string or mapping, got {spec!r}")
    mode = str(spec.get("mode", ""))
    if mode not in MODES:
        raise ValueError(f"unknown content mode {mode!r} (expected one of {MODES})")
    known = {"mode", "k", "n"} if mode == "group" else {"mode"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown content key(s) {unknown} for mode {mode!r}")
    if mode == "replication":
        return {"mode": "replication"}
    k = int(spec.get("k", DEFAULT_K))
    n = int(spec.get("n", DEFAULT_N))
    if n < 2 or not 1 <= k <= n:
        raise ValueError(f"bad group geometry k={k} n={n} (need 1 <= k <= n, n >= 2)")
    return {"mode": "group", "k": k, "n": n}


def content_is_default(content: Optional[Mapping[str, object]]) -> bool:
    """True when ``content`` means plain replication (today's behaviour)."""
    if content is None:
        return True
    return str(content.get("mode", "replication")) == "replication"


def coded_file_size(source_size: int, k: int, n: int) -> int:
    """Wire size of the coded object carrying ``source_size`` payload bytes.

    k-of-n coding expands the object by ``n/k``; downloading any k/n of
    it therefore moves the same byte volume as fetching the replication
    source — which keeps coded-vs-replication sweeps volume-fair.
    """
    if not 1 <= k <= n:
        raise ValueError(f"bad geometry k={k} n={n}")
    return -(-source_size * n // k)


def custody_column(num_pieces: int, column: int, custodians: int) -> List[int]:
    """Piece indices custody node ``column`` of ``custodians`` holds.

    The PeerDAS-style subset-seeding layout: piece ``i`` is assigned to
    custodian ``i % custodians``, so the custodians jointly cover every
    index exactly once and each holds an interleaved column.
    """
    if custodians <= 0:
        raise ValueError("custodians must be positive")
    if not 0 <= column < custodians:
        raise ValueError(f"column {column} out of range for {custodians} custodians")
    return [i for i in range(num_pieces) if i % custodians == column]


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class ReplicationCodec:
    """Plain BitTorrent semantics: every piece is unique source payload."""

    #: Trivial codecs leave the piece pipeline on its historical fast
    #: path — :class:`~repro.bittorrent.piece_manager.PieceManager` does
    #: zero group bookkeeping and produces byte-identical cell digests.
    trivial = True
    mode = "replication"

    def __init__(self, torrent) -> None:
        self.torrent = torrent


class GroupCodec:
    """Simulated k-of-n erasure coding over consecutive piece groups.

    The torrent's pieces are partitioned into ``ceil(num_pieces / n)``
    consecutive groups.  A full group of ``n`` coded pieces carries
    ``k`` pieces worth of source payload and is *decodable* from any
    ``k`` of its members.  A short tail group of ``s < n`` pieces
    requires ``min(k, s)`` members (it carries proportionally less
    payload).
    """

    trivial = False
    mode = "group"

    def __init__(self, torrent, k: int = DEFAULT_K, n: int = DEFAULT_N) -> None:
        if n < 2 or not 1 <= k <= n:
            raise ValueError(f"bad group geometry k={k} n={n} (need 1 <= k <= n, n >= 2)")
        self.torrent = torrent
        self.k = k
        self.n = n
        num_pieces = torrent.num_pieces
        self.num_groups = -(-num_pieces // n)
        self._required: List[int] = []
        self._source_bytes: List[int] = []
        for group in range(self.num_groups):
            lo = group * n
            hi = min(lo + n, num_pieces)
            required = min(k, hi - lo)
            self._required.append(required)
            # What decoding yields: `required` pieces worth of payload.
            # All pieces are piece_length except possibly the very last,
            # so summing the first `required` in-group sizes is exact.
            self._source_bytes.append(
                left_sum(torrent.piece_size(i) for i in range(lo, lo + required))
            )
        self.source_size = left_sum(self._source_bytes)

    # -- geometry ------------------------------------------------------

    def group_indices(self, group: int) -> range:
        lo = group * self.n
        return range(lo, min(lo + self.n, self.torrent.num_pieces))

    def required(self, group: int) -> int:
        """Coded pieces needed to decode ``group`` (k, or tail size)."""
        return self._required[group]

    def group_source_bytes(self, group: int) -> int:
        """Source payload bytes group ``group`` decodes to."""
        return self._source_bytes[group]

    # -- decoding semantics -------------------------------------------
    def reconstructs(self, group: int, indices: Iterable[int]) -> bool:
        """True when the held coded pieces ``indices`` decode ``group``.

        The simulated-coding law: any ``required(group)`` *distinct*
        in-group pieces reconstruct; fewer never do.
        """
        members = set(self.group_indices(group))
        held = len(members.intersection(indices))
        return held >= self._required[group]

    def group_counts(self, bitfield) -> List[int]:
        """Held coded pieces per group, recomputed from ``bitfield``."""
        counts = [0] * self.num_groups
        for index in bitfield.indices():
            counts[index // self.n] += 1
        return counts

    def decodable_groups(self, bitfield) -> List[bool]:
        counts = self.group_counts(bitfield)
        return [c >= r for c, r in zip(counts, self._required)]

    def is_complete(self, bitfield) -> bool:
        """Content complete: every group decodable (not: bitfield full)."""
        return all(self.decodable_groups(bitfield))

    def decoded_bytes(self, bitfield) -> int:
        """Source payload recoverable from ``bitfield`` right now."""
        return left_sum(
            size
            for size, ok in zip(self._source_bytes, self.decodable_groups(bitfield))
            if ok
        )


def make_codec(content: Optional[ContentSpec], torrent):
    """Build the codec a normalised (or raw) content spec describes.

    ``None`` or a replication spec yields :class:`ReplicationCodec`.
    """
    if content is None:
        return ReplicationCodec(torrent)
    normalized = normalize_content(content)
    if content_is_default(normalized):
        return ReplicationCodec(torrent)
    return GroupCodec(torrent, k=int(normalized["k"]), n=int(normalized["n"]))
