"""The BitTorrent client.

Ties the protocol pieces together for one torrent on one host: tracker
announces, peer connection management (with the standard duplicate-
connection tie-break), interest/choke handling via the tit-for-tat choker,
request pipelining through the piece manager and selection strategy, and a
token-bucket upload limiter.

Mobility behaviour is pluggable via ``ip_change_policy``.  The default is
what the paper observes in deployed clients (§3.4): on an IP change the
task is terminated and re-initiated with a **fresh peer ID**, forfeiting
all tit-for-tat credit.  wP2P installs a different policy (identity
retention + role reversal) from :mod:`repro.wp2p`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from ..net.host import Host
from ..obs.metrics import Counter
from ..sim import PeriodicTask, Simulator
from ..strategy import ClientStrategy, resolve_strategy
from ..tcp.connection import TCPConnection
from ..tcp.stack import TCPStack
from .choker import ChokerDriver, TitForTatChoker
from .ledger import PeerLedger
from .messages import (
    EVENT_COMPLETED,
    EVENT_PERIODIC,
    EVENT_STARTED,
    EVENT_STOPPED,
    AnnounceRequest,
    AnnounceResponse,
    Piece,
    Request,
    TrackerError,
)
from .metainfo import Torrent
from .peer import PeerConnection
from .piece_manager import PieceManager
from .selection import (
    PieceSelector,
    RarestFirstSelector,
    SelectionContext,
    make_selector,
)
from .tracker import TRACKER_PORT


@dataclass
class ClientConfig:
    """Client tunables (defaults follow mainstream-client conventions)."""

    listen_port: int = 6881
    max_peers: int = 30
    choke_interval: float = 10.0
    unchoke_slots: int = 3
    optimistic_every: int = 3
    numwant: int = 50
    upload_limit: Optional[float] = None  # bytes/second; None = unlimited
    ledger_half_life: float = 60.0
    task_restart_delay: float = 2.0
    keep_seeding: bool = True
    corrupt_probability: float = 0.0


IPChangePolicy = Callable[["BitTorrentClient", Optional[str], Optional[str]], None]

#: Seconds before a failed announce is retried (doubling per failure).
ANNOUNCE_RETRY = 10.0
#: Backoff ceiling for failed announces when no tracker response has
#: given an announce interval yet.
DEFAULT_ANNOUNCE_BACKOFF_CAP = 120.0
#: Seconds before an unanswered block request is released for re-request.
REQUEST_TIMEOUT = 30.0
#: Unacknowledged bytes on a connection above which uploads to that peer
#: wait their turn.
SEND_BUFFER_CAP = 65_536
#: Seconds between two housekeeping sweeps.
SWEEP_INTERVAL = 1.0
#: New outgoing connections per housekeeping sweep.
CONNECTS_PER_SWEEP = 4
#: Block requests kept outstanding per unchoked peer.
REQUEST_PIPELINE = 8
#: Seconds a connection may go without us sending before a keep-alive
#: goes out (the standard two minutes).
KEEPALIVE_INTERVAL = 120.0


def default_restart_policy(
    client: "BitTorrentClient", old: Optional[str], new: Optional[str]
) -> None:
    """The deployed-client behaviour the paper measures: on a new address,
    terminate the task and re-initiate it under a fresh peer ID."""
    client.schedule_task_restart(new_peer_id=True)


class BitTorrentClient:
    """One torrent's client application on one host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        torrent: Torrent,
        complete: bool = False,
        selector: Optional[PieceSelector] = None,
        config: Optional[ClientConfig] = None,
        name: Optional[str] = None,
        initial_pieces=None,
        strategy: Optional[Union[str, ClientStrategy]] = None,
        codec=None,
        upload_bucket=None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.torrent = torrent
        self.config = config or ClientConfig()
        self.name = name or f"bt.{host.name}"
        # Strategy resolution: a registry name or ClientStrategy bundles a
        # choking policy, an optional selector and config overrides.  The
        # overrides land on a *copy* (configs are shared across peers in
        # several experiments); ``strategy=None`` changes nothing at all.
        self.strategy: Optional[ClientStrategy] = resolve_strategy(strategy)
        if self.strategy is not None and self.strategy.config_overrides:
            self.config = replace(self.config, **self.strategy.config_overrides)
        if (
            selector is None
            and self.strategy is not None
            and self.strategy.selector is not None
        ):
            selector = make_selector(self.strategy.selector)
        self.selector = selector or RarestFirstSelector()
        self._rng = sim.rng.stream(f"client.{self.name}")
        self.manager = PieceManager(
            torrent,
            complete=complete,
            initial_pieces=initial_pieces,
            corrupt_probability=self.config.corrupt_probability,
            rng=sim.rng.stream(f"client.{self.name}.verify"),
            trace=sim.trace,
            owner=self.name,
            codec=codec,
        )
        # Coded content gets PeerDAS-style availability sampling; the
        # default (trivial) codec attaches nothing.
        self._availability_sampler = None
        if not self.manager.codec.trivial:
            from ..coding.sampling import AvailabilitySampler

            self._availability_sampler = AvailabilitySampler(self)
        stack = host.transport
        self.stack: TCPStack = stack if isinstance(stack, TCPStack) else TCPStack(sim, host)

        self.peer_id = self._generate_peer_id()
        self.peers: Dict[str, PeerConnection] = {}
        # Handshaking connections in arrival order: a set of objects would
        # iterate in memory-address order, which moves from run to run.
        self._pending: Dict[PeerConnection, None] = {}
        self._connecting: Set[Tuple[str, int]] = set()
        self.known_addresses: Dict[str, Tuple[str, int]] = {}
        self.availability: Dict[int, int] = {}

        self.ledger = PeerLedger(sim, half_life=self.config.ledger_half_life)
        self.choker = ChokerDriver(
            self,
            interval=self.config.choke_interval,
            slots=self.config.unchoke_slots,
            optimistic_every=self.config.optimistic_every,
            policy=(
                self.strategy.make_policy()
                if self.strategy is not None
                else None
            ),
        )
        if self.strategy is not None:
            if sim.trace.enabled:
                sim.trace.event(
                    "strategy", "assign",
                    client=self.name, strategy=self.strategy.name,
                )
        from .rate import TokenBucket

        # A caller may hand several clients on one host the *same* bucket
        # (the CDN tier's shared uplink); by default each client gets its
        # own, rate-capped by config.upload_limit.
        if upload_bucket is not None:
            self.upload_bucket = upload_bucket
        else:
            self.upload_bucket = TokenBucket(sim, self.config.upload_limit)
        self._upload_queue: Deque[Tuple[PeerConnection, Request]] = deque()
        self._pump_event = None

        clock = lambda: sim.now  # noqa: E731
        self.downloaded = Counter(f"{self.name}.down", clock, record_history=True)
        self.uploaded = Counter(f"{self.name}.up", clock, record_history=True)
        self.completion_time: Optional[float] = None
        self.task_restarts = 0
        self.announce_count = 0
        self._announce_failures = 0
        self._tracker_interval_hint: Optional[float] = None
        self._backoff_rng = None

        self._sweep = PeriodicTask(sim, SWEEP_INTERVAL, self._on_sweep)
        self._announce_event = None
        self._restart_event = None
        self.started = False

        audit = sim.audit
        if audit is not None:
            audit.register_client(self)
        self.ip_change_policy: IPChangePolicy = default_restart_policy
        host.on_ip_change(self._on_ip_change)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the swarm: listen, start the choker, announce."""
        if self.started:
            return
        self.started = True
        self.stack.listen(self.config.listen_port, self._accept)
        self.choker.start()
        self._sweep.start(first_delay=SWEEP_INTERVAL)
        if self._availability_sampler is not None:
            self._availability_sampler.start()
        self.announce(EVENT_STARTED)

    def stop(self, announce: bool = True) -> None:
        """Leave the swarm and tear down every connection."""
        if not self.started:
            return
        self.started = False
        if announce and self.host.ip is not None:
            self._send_announce(EVENT_STOPPED, fire_and_forget=True)
        self.choker.stop()
        self._sweep.stop()
        if self._availability_sampler is not None:
            self._availability_sampler.stop()
        self.sim.cancel(self._announce_event)
        self._announce_event = None
        self.sim.cancel(self._restart_event)
        self._restart_event = None
        self._close_all_connections("stopped")
        self.stack.unlisten(self.config.listen_port)

    def schedule_task_restart(
        self,
        new_peer_id: bool,
        delay: Optional[float] = None,
        forget_peers: Optional[bool] = None,
    ) -> None:
        """Terminate and re-initiate the task after a teardown delay."""
        if not self.started:
            return
        self.sim.cancel(self._restart_event)
        restart_delay = self.config.task_restart_delay if delay is None else delay
        self._restart_event = self.sim.schedule(
            restart_delay, self.restart_task, new_peer_id, forget_peers
        )

    def restart_task(
        self, new_peer_id: bool = True, forget_peers: Optional[bool] = None
    ) -> None:
        """Tear down all peer connections and rejoin the swarm now.

        With ``new_peer_id`` (deployed-client default) all tit-for-tat
        credit at remote peers is orphaned under the old ID, and the
        restarted task has no memory of previously known peers
        (``forget_peers`` defaults to ``new_peer_id``) — it must wait for
        the tracker response to rebuild its swarm view.  wP2P restarts with
        both retained (identity retention + role reversal).
        """
        if not self.started:
            return
        self._restart_event = None
        self.task_restarts += 1
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "bittorrent", "task_restart", client=self.name,
                new_peer_id=new_peer_id, restarts=self.task_restarts,
            )
        self._close_all_connections("task_restart")
        if forget_peers is None:
            forget_peers = new_peer_id
        if forget_peers:
            self.known_addresses.clear()
        if new_peer_id:
            self.peer_id = self._generate_peer_id()
        self.announce(EVENT_STARTED)
        if not forget_peers:
            # Role-reversal style: reconnect to remembered peers at once
            # rather than waiting for the tracker round trip.
            self.connect_to_known_peers()

    # ------------------------------------------------------------------
    # Announce path
    # ------------------------------------------------------------------
    def announce(self, event: str = EVENT_PERIODIC) -> None:
        """Announce to the tracker now (rescheduling any pending announce)."""
        self.sim.cancel(self._announce_event)
        self._announce_event = None
        self._send_announce(event)

    def _send_announce(self, event: str, fire_and_forget: bool = False) -> None:
        if not self.started and not fire_and_forget:
            return
        if self.host.ip is None:
            self._schedule_announce(ANNOUNCE_RETRY)
            return
        try:
            conn = self.stack.connect(self.torrent.tracker_ip, TRACKER_PORT)
        except (RuntimeError, ValueError):
            self._schedule_announce(self._announce_backoff())
            return
        self.announce_count += 1
        # A content-complete coded client reports itself a seed even with
        # a partial bitfield; under replication this is the same number
        # as before (a full bitfield leaves zero bytes).
        if self.manager.complete:
            left = 0
        else:
            left = self.torrent.total_size - self.manager.bytes_completed
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "bittorrent", "announce", client=self.name,
                announce_event=event, left=left,
            )
        request = AnnounceRequest(
            info_hash=self.torrent.info_hash,
            peer_id=self.peer_id,
            ip=self.host.ip,
            port=self.config.listen_port,
            uploaded=int(self.uploaded.total),
            downloaded=int(self.downloaded.total),
            left=left,
            event=event,
            numwant=self.config.numwant,
        )
        got_response = []

        def on_message(message: object) -> None:
            if isinstance(message, AnnounceResponse):
                got_response.append(True)
                if not fire_and_forget:
                    self._on_tracker_response(message)
                conn.close()
            elif isinstance(message, TrackerError):
                # A refusing tracker closes after the error; close our
                # side too so on_close fires and schedules the retry —
                # otherwise the connection idles in CLOSE_WAIT and the
                # client never re-announces.
                conn.close()

        def on_close(reason: str) -> None:
            if not got_response and not fire_and_forget:
                self._schedule_announce(self._announce_backoff())

        conn.on_message = on_message
        conn.on_close = on_close
        conn.send_message(request)

    def _announce_backoff(self) -> float:
        """Retry delay after a failed announce (tracker refused with a
        :class:`TrackerError`, was unreachable, or dropped us mid-round).

        Exponential backoff from ``ANNOUNCE_RETRY`` with deterministic
        seeded jitter (±12.5%, its own RNG stream so protocol streams
        are untouched), capped at the announce interval — consecutive
        failures stop hammering a refusing tracker, while the cap keeps
        the client re-probing at least once per normal announce period.
        Note the host-down path keeps the plain fixed retry: that is the
        *client's* outage, not the tracker's.
        """
        failures = self._announce_failures
        self._announce_failures = failures + 1
        cap = max(
            ANNOUNCE_RETRY,
            self._tracker_interval_hint or DEFAULT_ANNOUNCE_BACKOFF_CAP,
        )
        delay = ANNOUNCE_RETRY * (2.0 ** min(failures, 16))
        if self._backoff_rng is None:
            self._backoff_rng = self.sim.rng.stream(f"client.{self.name}.backoff")
        jitter = 1.0 + 0.25 * (self._backoff_rng.random() - 0.5)
        return min(delay * jitter, cap)

    def _on_tracker_response(self, response: AnnounceResponse) -> None:
        self._announce_failures = 0
        self._tracker_interval_hint = response.interval
        self._schedule_announce(response.interval)
        for ip, port, peer_id in response.peers:
            if peer_id != self.peer_id:
                self.known_addresses[peer_id] = (ip, port)
        self.connect_to_known_peers()

    def _schedule_announce(self, delay: float) -> None:
        if not self.started:
            return
        self.sim.cancel(self._announce_event)
        self._announce_event = self.sim.schedule(delay, self._periodic_announce)

    def _periodic_announce(self) -> None:
        self._announce_event = None
        self._send_announce(EVENT_PERIODIC)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect_to_known_peers(self, limit: Optional[int] = None) -> int:
        """Open connections toward known addresses, up to capacity."""
        if self.host.ip is None or not self.started:
            return 0
        budget = self.config.max_peers - self._connection_count()
        if limit is not None:
            budget = min(budget, limit)
        opened = 0
        connected_ids = set(self.peers)
        for peer_id, (ip, port) in list(self.known_addresses.items()):
            if budget <= 0:
                break
            if peer_id in connected_ids or (ip, port) in self._connecting:
                continue
            if self._connect(ip, port):
                budget -= 1
                opened += 1
        return opened

    def _connect(self, ip: str, port: int) -> bool:
        try:
            tcp = self.stack.connect(ip, port)
        except (RuntimeError, ValueError):
            return False
        self._connecting.add((ip, port))
        peer = PeerConnection(self, tcp, initiated=True)
        self._pending[peer] = None
        return True

    def _accept(self, tcp: TCPConnection) -> None:
        if self._connection_count() >= self.config.max_peers or not self.started:
            tcp.abort("busy")
            return
        peer = PeerConnection(self, tcp, initiated=False)
        self._pending[peer] = None

    def register_peer(self, peer: PeerConnection) -> bool:
        """Finalize a handshake: dedupe and index by peer ID."""
        peer_id = peer.peer_id
        assert peer_id is not None
        if peer_id == self.peer_id:
            peer.close("self_connection")
            return False
        existing = self.peers.get(peer_id)
        if existing is not None and not existing.closed and existing is not peer:
            if existing.initiated == peer.initiated:
                existing.close("superseded")
            else:
                # Deterministic tie-break both ends agree on: keep the
                # connection initiated by the lexicographically smaller ID.
                keep_initiated_here = self.peer_id < peer_id
                if peer.initiated != keep_initiated_here:
                    peer.close("duplicate")
                    return False
                existing.close("duplicate")
        self.peers[peer_id] = peer
        self._pending.pop(peer, None)
        if peer.initiated:
            self.known_addresses.setdefault(peer_id, (peer.remote_ip, peer.remote_port))
        return True

    def peer_disconnected(self, peer: PeerConnection) -> None:
        self._pending.pop(peer, None)
        self._connecting.discard((peer.remote_ip, peer.remote_port))
        if peer.peer_id is not None and self.peers.get(peer.peer_id) is peer:
            del self.peers[peer.peer_id]
        if peer.peer_id is None and peer.initiated:
            # An outgoing connection that died before the handshake means
            # the address is stale (a handed-off mobile host, a crashed
            # peer).  Forget it — keeping it would both leak an entry per
            # churn cycle and burn a connect slot on a doomed SYN every
            # sweep.  A live peer is re-learned from the next tracker
            # response or its own incoming connection.
            dead = (peer.remote_ip, peer.remote_port)
            for peer_id, addr in list(self.known_addresses.items()):
                if addr == dead:
                    del self.known_addresses[peer_id]
        self.drop_uploads_for(peer)

    def connected_peers(self) -> List[PeerConnection]:
        return [p for p in self.peers.values() if not p.closed]

    def _connection_count(self) -> int:
        count = len(self._pending)
        for peer in self.peers.values():
            count += not peer.closed
        return count

    def _close_all_connections(self, reason: str) -> None:
        for peer in list(self.peers.values()) + list(self._pending):
            peer.close(reason)
        self.peers.clear()
        self._pending.clear()
        self._connecting.clear()
        self._upload_queue.clear()
        self.availability.clear()

    # ------------------------------------------------------------------
    # Availability ledger (rarest-first input)
    # ------------------------------------------------------------------
    def availability_add(self, bitfield) -> None:
        for index in bitfield.indices():
            self.availability[index] = self.availability.get(index, 0) + 1

    def availability_remove(self, bitfield) -> None:
        for index in bitfield.indices():
            count = self.availability.get(index, 0) - 1
            if count <= 0:
                self.availability.pop(index, None)
            else:
                self.availability[index] = count

    def availability_increment(self, index: int) -> None:
        self.availability[index] = self.availability.get(index, 0) + 1

    # ------------------------------------------------------------------
    # Download path
    # ------------------------------------------------------------------
    def fill_requests(self, peer: PeerConnection) -> None:
        """Keep the request pipeline to ``peer`` full."""
        if (
            peer.closed
            or not peer.ready
            or peer.peer_choking
            or self.manager.complete
            or not self.started
        ):
            return
        peer.update_interest()
        if not peer.am_interested:
            return
        ctx = SelectionContext(
            availability=self.availability,
            progress=self.manager.progress,
            now=self.sim.now,
            rng=self._rng,
        )
        while len(peer.outstanding) < REQUEST_PIPELINE:
            choice = self.manager.next_request(peer.peer_bitfield, self.selector, ctx)
            if choice is None:
                break
            index, begin, length = choice
            self.manager.mark_requested(index, begin, self.sim.now)
            peer.send_request(index, begin, length)

    def block_received(self, peer: PeerConnection, piece: Piece) -> None:
        if peer.peer_id is not None:
            self.ledger.credit(peer.peer_id, piece.length)
        audit = self.sim.audit
        if audit is not None:
            audit.note_block_received(self, peer.peer_id, piece.length)
        self.downloaded.add(piece.length)
        completed = self.manager.receive_block(piece.index, piece.begin, piece.length)
        if completed is not None:
            for other in self.connected_peers():
                other.send_have(completed)
                other.update_interest()
            if self.manager.complete and self.completion_time is None:
                # The guard matters only for coded content, where blocks
                # in flight past the decode point can still finish pieces.
                self._on_complete()
        self.fill_requests(peer)

    def peer_became_interested(self, peer: PeerConnection) -> None:
        """Hook for subclasses/policies; default defers to choker rounds."""

    def _on_complete(self) -> None:
        self.completion_time = self.sim.now
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "bittorrent", "download_complete", client=self.name,
                downloaded=self.downloaded.total,
            )
        self.announce(EVENT_COMPLETED)
        if not self.config.keep_seeding:
            self.sim.call_soon(self.stop)

    # ------------------------------------------------------------------
    # Upload path
    # ------------------------------------------------------------------
    def queue_upload(self, peer: PeerConnection, request: Request) -> None:
        self._upload_queue.append((peer, request))
        self._pump_uploads()

    def drop_uploads_for(self, peer: PeerConnection) -> None:
        self._upload_queue = deque(
            (p, r) for p, r in self._upload_queue if p is not peer
        )

    def note_uploaded(self, peer: PeerConnection, nbytes: int) -> None:
        audit = self.sim.audit
        if audit is not None:
            audit.note_block_sent(self, peer.peer_id, nbytes)
        self.uploaded.add(nbytes)

    def set_upload_limit(self, rate: Optional[float]) -> None:
        """Change the upload cap live (used by wP2P's LIHD controller)."""
        self.upload_bucket.set_rate(rate)
        self._pump_uploads()

    def _pump_uploads(self) -> None:
        queue = self._upload_queue
        rotations = 0
        while queue:
            peer, request = queue[0]
            if peer.closed or peer.am_choking:
                queue.popleft()
                continue
            snd = peer.tcp.snd
            if snd.end - snd.una >= SEND_BUFFER_CAP:  # send_buffer_bytes, inlined
                queue.rotate(-1)
                rotations += 1
                if rotations >= len(queue):
                    self._schedule_pump(0.05)
                    return
                continue
            if not self.upload_bucket.try_consume(request.length):
                delay = self.upload_bucket.time_until(request.length)
                if delay != float("inf"):
                    self._schedule_pump(delay)
                return
            queue.popleft()
            rotations = 0
            peer.send_piece(request.index, request.begin, request.length)

    def _schedule_pump(self, delay: float) -> None:
        if self._pump_event is not None and self._pump_event.alive:
            return
        self._pump_event = self.sim.schedule(max(delay, 1e-3), self._pump_ready)

    def _pump_ready(self) -> None:
        self._pump_event = None
        self._pump_uploads()

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _on_sweep(self) -> None:
        released = self.manager.expire_requests(self.sim.now, REQUEST_TIMEOUT)
        peers = self.connected_peers()
        if released:
            keys = set(released)
            for peer in peers:
                for key in list(peer.outstanding):
                    if key in keys:
                        del peer.outstanding[key]
        for peer in peers:
            if not peer.peer_choking and peer.am_interested:
                self.fill_requests(peer)
        self._keepalive_sweep(peers)
        self._pump_uploads()
        self.ledger.prune()
        if self._connection_count() < self.config.max_peers:
            self.connect_to_known_peers(limit=CONNECTS_PER_SWEEP)

    def _keepalive_sweep(self, peers: List[PeerConnection]) -> None:
        """Keep idle connections alive."""
        now = self.sim.now
        for peer in peers:
            if peer.ready and now - peer.last_sent >= KEEPALIVE_INTERVAL:
                peer.send_keepalive()

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------
    def _on_ip_change(self, old: Optional[str], new: Optional[str]) -> None:
        if not self.started or new is None:
            return
        self.ip_change_policy(self, old, new)

    # ------------------------------------------------------------------
    # Progress properties
    # ------------------------------------------------------------------
    @property
    def progress(self) -> float:
        return self.manager.progress

    @property
    def complete(self) -> bool:
        return self.manager.complete

    @property
    def strategy_name(self) -> str:
        """The resolved strategy name (``reference`` when none was set)."""
        return self.strategy.name if self.strategy is not None else "reference"

    def _generate_peer_id(self) -> str:
        """Peer IDs are a function of the current address and a random value
        (§3.4), so every task re-initiation after a handoff yields a new one."""
        ip = self.host.ip or "0.0.0.0"
        nonce = self._rng.randrange(16 ** 8)
        return f"-SM1000-{ip}-{nonce:08x}"
