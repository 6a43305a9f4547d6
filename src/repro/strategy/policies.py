"""Built-in choking policies.

* :class:`ReferencePolicy` — the paper's tit-for-tat baseline (§2.2),
  byte-for-byte the ranking the pre-seam ``TitForTatChoker`` used.
* :class:`FreeriderPolicy` — contributes nothing: zero ranked slots
  (its strategy also pins ``unchoke_slots=0`` and hit-and-run
  ``keep_seeding=False``), yet keeps downloading whatever optimistic
  slots and seeds will give it.
* :class:`TyrantPolicy` — a BitTyrant-style exploiter (Piatek et al.):
  estimates the upload "cost" of keeping each peer reciprocating and
  unchokes the peers with the best value-per-cost, skipping the
  optimistic rotation entirely.
* :class:`PropSharePolicy` — the proportional-share robust choker of
  Nielson et al. (arXiv:1108.2716): ranked slots are drawn
  proportionally to each peer's contribution, so service scales with
  what a peer actually gives and threshold-gaming the top-N cutoff
  stops paying.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Sequence, Set

from ..summation import left_sum
from .base import ChokerPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..bittorrent.client import BitTorrentClient
    from ..bittorrent.peer import PeerConnection


def contribution_rate(
    client: "BitTorrentClient", peer: "PeerConnection"
) -> float:
    """What ``peer`` is worth to ``client`` right now.

    While leeching: live download rate plus the decayed
    :class:`~repro.bittorrent.ledger.PeerLedger` credit for the peer's
    ID — which is what makes wP2P identity retention compose with every
    policy here (a retained ID keeps its credit across handoffs, a
    fresh one ranks zero).  While seeding: upload rate to the peer.
    """
    if client.manager.complete:
        return peer.upload_meter.rate()
    live = peer.download_meter.rate()
    credit = client.ledger.rate(peer.peer_id) if peer.peer_id else 0.0
    return live + credit


class ReferencePolicy(ChokerPolicy):
    """Standard tit-for-tat: top-N by contribution, optimistic slot on."""

    name = "reference"
    uses_optimistic = True

    def rank(self, client, peer):
        return contribution_rate(client, peer)


class FreeriderPolicy(ChokerPolicy):
    """Never unchokes anyone; no optimistic slot to give away either."""

    name = "freerider"
    uses_optimistic = False

    def allocate(self, client, candidates, slots, rng):
        return set()


class TyrantPolicy(ChokerPolicy):
    """BitTyrant-style reciprocation estimator.

    Keeps a per-peer-ID estimate of the upload rate needed to stay
    reciprocated and ranks peers by contribution per unit cost, so the
    slots go to the *cheapest sufficient* peers.  After each round the
    estimate adapts from what actually happened: a peer we unchoked
    that reciprocated was overpaid (probe cheaper, ``decrease``); one
    that took our slot without reciprocating was underpaid (``increase``).
    No optimistic slot — the canonical BitTyrant free lunch.
    """

    name = "tyrant"
    uses_optimistic = False
    initial_cost = 8_192.0  # bytes/s a new peer is assumed to need
    decrease = 0.9
    increase = 1.25
    cost_floor = 256.0

    def __init__(self) -> None:
        self.cost: Dict[str, float] = {}
        self._unchoked_last: Set[str] = set()

    def rank(self, client, peer):
        value = contribution_rate(client, peer)
        cost = self.cost.get(peer.peer_id or "", self.initial_cost)
        return value / cost

    def allocate(self, client, candidates, slots, rng):
        for peer in candidates:
            peer_id = peer.peer_id
            if peer_id is None or peer_id not in self._unchoked_last:
                continue
            cost = self.cost.get(peer_id, self.initial_cost)
            factor = self.decrease if not peer.peer_choking else self.increase
            self.cost[peer_id] = max(cost * factor, self.cost_floor)
        chosen = super().allocate(client, candidates, slots, rng)
        self._unchoked_last = {p.peer_id for p in chosen if p.peer_id}
        return chosen


class PropSharePolicy(ChokerPolicy):
    """Proportional-share robust choker (Nielson et al.).

    Each ranked slot is a weighted draw (without replacement) over the
    candidates, weight = contribution — expected service is
    proportional to what a peer gives.  Zero-contributors can never win
    a ranked slot; the optimistic rotation stays on as the sanctioned
    bootstrap path, so newcomers are served without being exploitable.
    """

    name = "propshare"
    uses_optimistic = True

    def rank(self, client, peer):
        return contribution_rate(client, peer)

    def allocate(
        self,
        client: "BitTorrentClient",
        candidates: Sequence["PeerConnection"],
        slots: int,
        rng: random.Random,
    ) -> Set["PeerConnection"]:
        pool = [p for p in candidates if self.rank(client, p) > 0.0]
        weights = [self.rank(client, p) for p in pool]
        chosen: Set["PeerConnection"] = set()
        while pool and len(chosen) < slots:
            total = left_sum(weights)
            draw = rng.random() * total
            acc = 0.0
            winner = len(pool) - 1  # float-sum slack lands on the last
            for i, weight in enumerate(weights):
                acc += weight
                if draw < acc:
                    winner = i
                    break
            chosen.add(pool.pop(winner))
            weights.pop(winner)
        return chosen
