"""The tracker: the swarm's directory server.

Runs as an application on a simulated host, answering announce requests
over TCP.  Faithful to the behaviours the paper leans on:

* peers are tracked per ``(info_hash, peer_id)``; a mobile host that
  re-announces under a **new** peer ID leaves its old record — with the now
  unroutable address — in the swarm until it is pruned, so fixed peers keep
  receiving stale addresses (§3.5);
* responses carry a random sample of up to ``numwant`` (at most
  :data:`NUMWANT_CAP`) peers;
* clients are expected back every ``interval`` seconds and are pruned after
  missing :data:`PRUNE_FACTOR` intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.host import Host
from ..sim import Simulator
from ..tcp.connection import TCPConnection
from ..tcp.stack import TCPStack
from .messages import (
    EVENT_COMPLETED,
    EVENT_STOPPED,
    AnnounceRequest,
    AnnounceResponse,
    TrackerError,
)

TRACKER_PORT = 8000
"""The port every tracker listens on."""

NUMWANT_CAP = 50
"""Most peers one announce response carries."""

PRUNE_FACTOR = 2.5
"""A record is pruned after this many announce intervals of silence."""


@dataclass
class PeerRecord:
    peer_id: str
    ip: str
    port: int
    left: int
    last_seen: float
    completed: bool = False


class Tracker:
    """Announce server for any number of swarms."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        interval: float = 120.0,
    ) -> None:
        self.sim = sim
        self.host = host
        self.interval = interval
        self._swarms: Dict[str, Dict[str, PeerRecord]] = {}
        self._rng = sim.rng.stream("tracker")
        self.announces = 0
        self.serving = True
        self.refused = 0
        stack = host.transport
        if not isinstance(stack, TCPStack):
            stack = TCPStack(sim, host)
        self.stack: TCPStack = stack
        self.stack.listen(TRACKER_PORT, self._accept)

    # ------------------------------------------------------------------
    # Introspection helpers for experiments/tests
    # ------------------------------------------------------------------
    def swarm_size(self, info_hash: str) -> int:
        return len(self._swarms.get(info_hash, {}))

    def swarm_peers(self, info_hash: str) -> List[PeerRecord]:
        return list(self._swarms.get(info_hash, {}).values())

    def seeds_and_leeches(self, info_hash: str) -> Tuple[int, int]:
        seeds = leeches = 0
        for record in self._swarms.get(info_hash, {}).values():
            if record.left == 0:
                seeds += 1
            else:
                leeches += 1
        return seeds, leeches

    # ------------------------------------------------------------------
    # Fault hook (repro.chaos)
    # ------------------------------------------------------------------
    def set_serving(self, serving: bool) -> None:
        """Soft-outage fault hook: while not serving, every announce is
        answered with ``TrackerError("tracker_offline")`` and the
        connection closed — the TCP listener stays up (a tracker whose
        web server is down but whose host is still routable).  For a
        full blackout, disconnect the tracker's *host* instead (see
        :class:`repro.chaos.TrackerOutage`)."""
        self.serving = serving

    # ------------------------------------------------------------------
    def _accept(self, conn: TCPConnection) -> None:
        conn.on_message = lambda message: self._handle(conn, message)

    def _handle(self, conn: TCPConnection, message: object) -> None:
        if not self.serving:
            self.refused += 1
            conn.send_message(TrackerError("tracker_offline"))
            conn.close()
            return
        if not isinstance(message, AnnounceRequest):
            conn.send_message(TrackerError("bad_request"))
            conn.close()
            return
        self.announces += 1
        swarm = self._swarms.setdefault(message.info_hash, {})
        self._prune(swarm)

        if message.event == EVENT_STOPPED:
            swarm.pop(message.peer_id, None)
            conn.send_message(AnnounceResponse(self.interval, ()))
            conn.close()
            return

        record = swarm.get(message.peer_id)
        if record is None:
            record = PeerRecord(
                message.peer_id, message.ip, message.port, message.left, self.sim.now
            )
            swarm[message.peer_id] = record
        else:
            record.ip = message.ip
            record.port = message.port
            record.left = message.left
            record.last_seen = self.sim.now
        if message.event == EVENT_COMPLETED:
            record.completed = True
            record.left = 0

        peers = self._sample(swarm, exclude=message.peer_id, numwant=message.numwant)
        seeds, leeches = self.seeds_and_leeches(message.info_hash)
        conn.send_message(
            AnnounceResponse(
                self.interval,
                tuple((r.ip, r.port, r.peer_id) for r in peers),
                complete=seeds,
                incomplete=leeches,
            )
        )
        conn.close()

    def _sample(
        self, swarm: Dict[str, PeerRecord], exclude: str, numwant: int
    ) -> List[PeerRecord]:
        candidates = [r for pid, r in swarm.items() if pid != exclude]
        want = min(numwant, NUMWANT_CAP, len(candidates))
        if want >= len(candidates):
            return candidates
        return self._rng.sample(candidates, want)

    def _prune(self, swarm: Dict[str, PeerRecord]) -> None:
        cutoff = self.sim.now - self.interval * PRUNE_FACTOR
        stale = [pid for pid, r in swarm.items() if r.last_seen < cutoff]
        for pid in stale:
            del swarm[pid]
