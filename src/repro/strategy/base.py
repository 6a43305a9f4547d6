"""The client-strategy seam: choking policies and strategy bundles.

A :class:`ChokerPolicy` owns *what* the choker decides each round —
how interested peers are ranked and which of them get the ranked
unchoke slots — while the shared driver
(:class:`~repro.bittorrent.choker.ChokerDriver`) owns *when*: round
scheduling, the optimistic-unchoke rotation and applying the
choke/unchoke edge to each connection.  The split
mirrors :class:`~repro.bittorrent.selection.PieceSelector` on the
download side.

A :class:`ClientStrategy` bundles one choking policy with an optional
piece-selector name and client-config behaviour overrides into a
named, registry-resolved unit — ``reference``, ``freerider``,
``tyrant``, ``propshare`` — so an entire client personality travels as
one string through specs, CLIs and caches.

This package never imports :mod:`repro.bittorrent` at runtime (only
under ``TYPE_CHECKING``), so the bittorrent layer can depend on it
without a cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover
    from ..bittorrent.client import BitTorrentClient
    from ..bittorrent.peer import PeerConnection


class ChokerPolicy:
    """Ranking + slot allocation for one client's choke rounds.

    Stateful per client: the driver constructs one policy instance per
    client (via :attr:`ClientStrategy.policy_factory`), so estimator
    policies such as :class:`~repro.strategy.policies.TyrantPolicy` may
    keep per-peer history on ``self``.
    """

    #: registry-facing policy name (matches the owning strategy's name)
    name = "base"

    #: whether the driver runs the optimistic-unchoke rotation for this
    #: policy (BitTyrant-style clients famously drop it)
    uses_optimistic = True

    def rank(self, client: "BitTorrentClient", peer: "PeerConnection") -> float:
        """The ranking key for one interested peer (higher is better)."""
        raise NotImplementedError

    def allocate(
        self,
        client: "BitTorrentClient",
        candidates: Sequence["PeerConnection"],
        slots: int,
        rng: random.Random,
    ) -> Set["PeerConnection"]:
        """Pick which candidates win the ranked unchoke slots.

        The default is the classic top-``slots`` by :meth:`rank`
        (stable sort, so equal-ranked peers keep candidate order).
        ``rng`` is the client's seeded choker stream; the reference
        policy never draws from it here, so the default simulation
        trajectory is untouched by this seam existing.
        """
        ranked = sorted(
            candidates, key=lambda p: self.rank(client, p), reverse=True
        )
        return set(ranked[:slots])


@dataclass(frozen=True)
class ClientStrategy:
    """A named bundle of (choker policy, selector, behaviour overrides).

    ``policy_factory`` builds a fresh :class:`ChokerPolicy` per client.
    ``selector`` optionally names a registered piece selector (see
    :func:`repro.bittorrent.selection.make_selector`); ``None`` keeps
    the client's default.  ``config_overrides`` are applied to a *copy*
    of the client's :class:`~repro.bittorrent.client.ClientConfig`
    (``dataclasses.replace``), never mutating a shared config object.
    """

    name: str
    policy_factory: Callable[[], ChokerPolicy]
    description: str = ""
    selector: Optional[str] = None
    config_overrides: Mapping[str, object] = field(default_factory=dict)

    def make_policy(self) -> ChokerPolicy:
        """A fresh policy instance for one client."""
        return self.policy_factory()
