"""Per-peer-ID transfer credit that survives reconnections.

BitTorrent implementations of the paper's era (Azureus in particular, which
the paper's testbed runs) keep per-peer statistics and reputation keyed by
**peer ID**, so a peer that reconnects under the same ID re-enters the
choker's ranking with its history, while a new ID starts from zero and must
wait for an optimistic unchoke.  That asymmetry is exactly what the paper's
identity-retention result (Figure 8(b)) exploits: "since the peers track the
goodness of corresponding peers based on the peer-id, [an IP change] results
in the mobile peer losing all the credit it has built" (§3.4).

:class:`PeerLedger` models that credit as an exponentially decayed byte
rate: receipts add to the credit, and the credit halves every ``half_life``
seconds, connected or not.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim import Simulator

PRUNE_FLOOR = 1.0
"""Bytes of decayed credit below which :meth:`PeerLedger.prune` drops an
entry."""


class PeerLedger:
    """Decaying per-peer-ID credit, in effective bytes/second."""

    def __init__(self, sim: Simulator, half_life: float = 60.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.sim = sim
        self.half_life = half_life
        self._credit: Dict[str, Tuple[float, float]] = {}  # id -> (bytes, t)

    def credit(self, peer_id: str, nbytes: float) -> None:
        """Record ``nbytes`` received from ``peer_id``."""
        decayed = self._decayed(peer_id)
        self._credit[peer_id] = (decayed + nbytes, self.sim.now)

    def rate(self, peer_id: str) -> float:
        """Effective credited rate for ``peer_id`` (bytes/second)."""
        return self._decayed(peer_id) / self.half_life

    def raw_credit(self, peer_id: str) -> float:
        """Undecayed credit currently stored for ``peer_id`` (0 if unknown).

        This is the upper bound on what the peer can ever have delivered:
        decay only shrinks the stored value, so ``raw_credit`` can never
        exceed the true bytes received from that ID.
        """
        entry = self._credit.get(peer_id)
        return entry[0] if entry is not None else 0.0

    def prune(self) -> int:
        """Drop entries whose decayed credit has fallen below
        :data:`PRUNE_FLOOR` bytes; returns how many were dropped.

        Peer-ID churn (a mobile host restarting its task with a fresh ID
        after every handoff) would otherwise grow the ledger without
        bound: each orphaned ID sits at an exponentially decaying — but
        never zero — credit forever.  Below one byte of effective credit
        an entry is indistinguishable from an unknown peer.
        """
        stale = [pid for pid in self._credit if self._decayed(pid) < PRUNE_FLOOR]
        for pid in stale:
            del self._credit[pid]
        return len(stale)

    def known_ids(self) -> Tuple[str, ...]:
        return tuple(self._credit)

    def _decayed(self, peer_id: str) -> float:
        entry = self._credit.get(peer_id)
        if entry is None:
            return 0.0
        value, at = entry
        dt = self.sim.now - at
        if dt <= 0:
            return value
        return value * 0.5 ** (dt / self.half_life)
