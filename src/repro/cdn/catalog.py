"""Hash-addressed asset catalogs.

A :class:`Catalog` is the content side of the CDN tier: an ordered set
of :class:`Asset` descriptions (popularity rank, byte size, piece
geometry), each identified by a content address derived from its
description — the ``p2p-cdn/host`` shape where every file is named by
its hash, not by a mutable path.  Each asset maps to one BitTorrent
swarm (:meth:`Catalog.torrent`), so a catalog of N assets is N swarms
sharing one tracker, one origin, and each requesting peer's single
uplink.

Catalog *specs* are plain data (``{"assets": 16, "size_kib": 256}``, or
the ``"assets:16,size_kib:256"`` CLI string) and are validated eagerly
by :func:`normalize_catalog` so a malformed spec fails at parse time,
never inside a worker process mid-campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from ..bittorrent.metainfo import BLOCK_LENGTH, Torrent

#: Catalogs above this are rejected on the packet backend by scenarios
#: (one swarm per asset would melt the event kernel); the fluid
#: surrogate has no such limit.
PACKET_CATALOG_LIMIT = 64

_DEFAULT_ASSETS = 4
_DEFAULT_SIZE_KIB = 256
_DEFAULT_PIECE_KIB = 16

CatalogSpec = Union[int, str, Mapping[str, object], None]


@dataclass(frozen=True)
class Asset:
    """One catalog entry: a hash-addressed file served as one swarm."""

    rank: int  # 1-based popularity rank (1 = most popular)
    name: str
    size: int  # bytes
    piece_length: int

    @property
    def asset_id(self) -> str:
        """Content address: a digest of the asset description.

        Stable across processes and runs, so serial and parallel workers
        name identical swarms.
        """
        body = f"{self.name}|{self.size}|{self.piece_length}"
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def normalize_catalog(spec: CatalogSpec) -> Dict[str, object]:
    """Canonicalise and validate a catalog spec (eager, at parse time).

    Accepted forms::

        8                                   # asset count, defaults otherwise
        "assets:8"                          # CLI string
        "assets:8,size_kib:512,piece_kib:32"
        {"assets": 8, "size_kib": 512}      # mapping (JSON)
        {"assets": 3, "sizes_kib": [512, 256, 64]}  # per-asset sizes

    Raises :class:`ValueError` on anything malformed.
    """
    if spec is None:
        spec = {}
    if isinstance(spec, bool):
        raise ValueError("catalog spec must be a count, string, or mapping")
    if isinstance(spec, int):
        spec = {"assets": spec}
    elif isinstance(spec, str):
        spec = _parse_catalog_string(spec)
    elif not isinstance(spec, Mapping):
        raise ValueError(
            f"catalog spec must be a count, string, or mapping, got {spec!r}"
        )
    known = {"assets", "size_kib", "piece_kib", "sizes_kib"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"unknown catalog keys {sorted(unknown)}; expected {sorted(known)}"
        )
    assets = _require_int(spec.get("assets", _DEFAULT_ASSETS), "assets", minimum=1)
    size_kib = _require_int(
        spec.get("size_kib", _DEFAULT_SIZE_KIB), "size_kib", minimum=1
    )
    piece_kib = _require_int(
        spec.get("piece_kib", _DEFAULT_PIECE_KIB), "piece_kib", minimum=1
    )
    piece_length = piece_kib * 1024
    if piece_length > BLOCK_LENGTH and piece_length % BLOCK_LENGTH != 0:
        raise ValueError(
            f"piece_kib={piece_kib} gives a piece length that is not a "
            f"multiple of the {BLOCK_LENGTH}-byte transfer block"
        )
    out: Dict[str, object] = {
        "assets": assets, "size_kib": size_kib, "piece_kib": piece_kib
    }
    sizes = spec.get("sizes_kib")
    if sizes is not None:
        if not isinstance(sizes, Sequence) or isinstance(sizes, (str, bytes)):
            raise ValueError("sizes_kib must be a list of per-asset KiB sizes")
        if len(sizes) != assets:
            raise ValueError(
                f"sizes_kib has {len(sizes)} entries for {assets} assets"
            )
        out["sizes_kib"] = [
            _require_int(s, f"sizes_kib[{i}]", minimum=1)
            for i, s in enumerate(sizes)
        ]
    return out


def _parse_catalog_string(text: str) -> Dict[str, object]:
    """``"assets:8,size_kib:512"`` (a bare integer also works)."""
    text = text.strip()
    if not text:
        return {}
    try:
        return {"assets": int(text)}
    except ValueError:
        pass
    out: Dict[str, object] = {}
    for part in text.split(","):
        key, sep, raw = part.strip().partition(":")
        if not sep or not key:
            raise ValueError(
                f"catalog string expects key:value pairs, got {part!r}"
            )
        try:
            out[key.strip()] = int(raw)
        except ValueError:
            raise ValueError(
                f"catalog value for {key.strip()!r} must be an integer, "
                f"got {raw!r}"
            ) from None
    return out


def _require_number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_int(value: object, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class Catalog:
    """An immutable, rank-ordered set of hash-addressed assets."""

    def __init__(self, assets: Sequence[Asset]) -> None:
        if not assets:
            raise ValueError("catalog needs at least one asset")
        ranks = [a.rank for a in assets]
        if ranks != list(range(1, len(assets) + 1)):
            raise ValueError("assets must be rank-ordered 1..N")
        self._assets: Tuple[Asset, ...] = tuple(assets)
        self._by_rank: Dict[int, Asset] = {a.rank: a for a in self._assets}

    @classmethod
    def from_spec(cls, spec: CatalogSpec) -> "Catalog":
        """Build the catalog a canonical spec describes."""
        norm = normalize_catalog(spec)
        assets = int(norm["assets"])  # type: ignore[arg-type]
        piece_length = int(norm["piece_kib"]) * 1024  # type: ignore[arg-type]
        sizes = norm.get("sizes_kib")
        out: List[Asset] = []
        for rank in range(1, assets + 1):
            kib = (
                int(sizes[rank - 1]) if sizes is not None  # type: ignore[index]
                else int(norm["size_kib"])  # type: ignore[arg-type]
            )
            out.append(
                Asset(
                    rank=rank,
                    name=f"asset-{rank:05d}",
                    size=kib * 1024,
                    piece_length=piece_length,
                )
            )
        return cls(out)

    def __len__(self) -> int:
        return len(self._assets)

    def __iter__(self) -> Iterator[Asset]:
        return iter(self._assets)

    def torrent(self, asset: Asset, tracker_ip: str) -> Torrent:
        """The torrent serving one asset (info-hash = content address)."""
        return Torrent(
            info_hash=f"cdn-{asset.asset_id}",
            name=asset.name,
            total_size=asset.size,
            piece_length=asset.piece_length,
            tracker_ip=tracker_ip,
        )
