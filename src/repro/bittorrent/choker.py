"""Round-based choking: shared driver + pluggable policy.

The standard BitTorrent choker (§2.2): every round (10 s) the client
unchokes the interested peers giving it the best rates — download rate from
the peer while leeching, upload rate to the peer while seeding — plus one
*optimistic unchoke* rotated every third round so newcomers can bootstrap.

Rate ranking folds in the :class:`~repro.bittorrent.ledger.PeerLedger`
credit for the peer's ID, which is what makes identity retention matter: a
reconnecting peer with a known ID ranks on its history, a fresh ID ranks
zero and must win the optimistic slot first.

Since the strategy layer (:mod:`repro.strategy`) the *decision* half —
how peers are ranked and which win the ranked slots — lives in a
:class:`~repro.strategy.base.ChokerPolicy`, while :class:`ChokerDriver`
keeps everything temporal: round scheduling, optimistic rotation
(skipped for policies that disown it) and applying choke/unchoke
edges.  Without an explicit policy :class:`ChokerDriver` runs
:class:`~repro.strategy.policies.ReferencePolicy`, whose ranking is the
exact expression the pre-seam choker used — same sort order, same RNG
draws, byte-identical trajectories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..sim import PeriodicTask, Simulator
from ..strategy.base import ChokerPolicy
from ..strategy.policies import ReferencePolicy

if TYPE_CHECKING:  # pragma: no cover
    from .client import BitTorrentClient
    from .peer import PeerConnection


class ChokerDriver:
    """Round scheduling + choke application for one client's policy."""

    def __init__(
        self,
        client: "BitTorrentClient",
        interval: float = 10.0,
        slots: int = 3,
        optimistic_every: int = 3,
        policy: Optional[ChokerPolicy] = None,
    ) -> None:
        if slots < 0:
            raise ValueError("slots must be non-negative")
        if optimistic_every < 1:
            raise ValueError("optimistic_every must be >= 1")
        self.client = client
        self.slots = slots
        self.optimistic_every = optimistic_every
        # `strategic` marks an explicitly-supplied policy: only those tag
        # their choke_round trace with `policy`, so default runs observe
        # nothing new.
        self.strategic = policy is not None
        self.policy: ChokerPolicy = policy if policy is not None else ReferencePolicy()
        self._task = PeriodicTask(client.sim, interval, self.run_round)
        self._round = 0
        self._optimistic: Optional["PeerConnection"] = None
        self._rng = client.sim.rng.stream(f"choker.{client.name}")
        self.rounds_run = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._task.start(first_delay=min(1.0, self._task.interval))

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    def rank_rate(self, peer: "PeerConnection") -> float:
        """Ranking key the policy applies to one interested peer."""
        return self.policy.rank(self.client, peer)

    def run_round(self) -> None:
        self._round += 1
        self.rounds_run += 1
        peers = [p for p in self.client.connected_peers() if p.ready]
        interested = [p for p in peers if p.peer_interested]
        unchoke = self.policy.allocate(
            self.client, interested, self.slots, self._rng
        )

        if self.policy.uses_optimistic:
            if self._round % self.optimistic_every == 1 or self._optimistic is None or self._optimistic.closed:
                self._rotate_optimistic(interested, unchoke)
            if self._optimistic is not None and not self._optimistic.closed:
                unchoke.add(self._optimistic)

        trace = self.client.sim.trace
        if trace.enabled:
            fields = dict(
                client=self.client.name, round=self._round,
                interested=len(interested),
                unchoked=sorted(p.peer_id or "?" for p in unchoke),
                optimistic=(
                    self._optimistic.peer_id
                    if self._optimistic is not None
                    else None
                ),
            )
            if self.strategic:
                fields["policy"] = self.policy.name
            trace.event("bittorrent", "choke_round", **fields)

        for peer in peers:
            peer.set_choking(peer not in unchoke)

    # ------------------------------------------------------------------
    def _rotate_optimistic(
        self,
        interested: List["PeerConnection"],
        already: set,
    ) -> None:
        candidates = [p for p in interested if p not in already]
        self._optimistic = self._rng.choice(candidates) if candidates else None

    @property
    def optimistic_peer(self) -> Optional["PeerConnection"]:
        return self._optimistic


class TitForTatChoker(ChokerDriver):
    """The reference choker under its historical name.

    Exactly a :class:`ChokerDriver` running
    :class:`~repro.strategy.policies.ReferencePolicy`; kept as the
    default (and the backward-compatible constructor) for every client
    that predates the strategy layer.
    """
