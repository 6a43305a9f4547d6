"""The runtime auditor: registration, sweeps, and trace-event checks.

An :class:`Auditor` attaches to one :class:`~repro.sim.kernel.Simulator`
and watches it from three angles at once:

* **Kernel hook** — the event loop calls :meth:`Auditor.before_event`
  for every dispatched event (only when an auditor is attached; an
  unaudited run pays one ``is None`` test per event).  The hook asserts
  event-queue time monotonicity and, every :data:`SWEEP_INTERVAL`
  events, runs a full invariant sweep.
* **Component sweeps** — instrumented components register themselves at
  construction (``sim.audit is not None`` is the whole cost when off);
  a sweep runs every checker in :mod:`repro.audit.checkers` over every
  registered queue, link direction, wireless channel, token bucket, TCP
  connection (and its counterpart), BitTorrent client, AM filter, and
  LIHD controller.  A final sweep runs when :meth:`Simulator.run`
  returns.
* **Trace sink** — the auditor is also a
  :class:`~repro.obs.tracing.TraceSink` attached to ``sim.trace``, so it
  validates the structured event stream itself: timestamps never go
  backwards, per-client download progress never regresses, announces
  never report negative bytes left, and the wP2P AM / MA / LIHD state
  machines only ever report legal transitions.

A failed invariant raises :class:`AuditViolation` (default), which
surfaces through the runner as an ordinary cell failure, or — with
``raise_on_violation=False`` — is collected on :attr:`Auditor.violations`
for the alarm-ring tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.tracing import TraceRecord, TraceSink
from . import checkers

#: Slack when comparing simulated timestamps.
TIME_EPS = 1e-9

#: Events between two full invariant sweeps.
SWEEP_INTERVAL = 256

#: Violations a collect-mode auditor keeps; later ones are not stored.
MAX_VIOLATIONS = 1000

_LEGAL_AM_STATUS = ("young", "mature")
_LEGAL_MA_MODES = ("rarest", "sequential")
_LEGAL_LIHD_DECISIONS = ("hold", "increase", "decrease")


@dataclass
class Violation:
    """One failed invariant."""

    time: float
    checker: str
    message: str

    def __str__(self) -> str:
        return f"[t={self.time:.6f}] {self.checker}: {self.message}"


class AuditViolation(AssertionError):
    """Raised when an invariant fails and the auditor is in raise mode."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Auditor(TraceSink):
    """Cross-layer invariant watchdog for one simulator.

    >>> sim = Simulator(seed=1)          # doctest: +SKIP
    >>> auditor = Auditor().attach(sim)  # doctest: +SKIP
    >>> ...build topology, run...        # doctest: +SKIP
    >>> auditor.sweep()                  # doctest: +SKIP

    Attach **before** building the topology: components register with
    ``sim.audit`` in their constructors.  (:func:`repro.audit.audited`
    does this automatically for every new simulator.)

    ``raise_on_violation=False`` is collect mode: violations, up to
    :data:`MAX_VIOLATIONS`, land on :attr:`violations` instead of
    raising.  A full sweep runs every :data:`SWEEP_INTERVAL` events.
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.sweeps = 0
        self.events_seen = 0

        self.sim = None
        self._clock: Callable[[], float] = lambda: 0.0
        self._last_event_time: Optional[float] = None
        self._last_trace_time: Optional[float] = None

        # Registered components, by layer.
        self.queues: List[object] = []
        self.directions: List[object] = []
        self.channels: List[object] = []
        self.buckets: List[object] = []
        self.connections: List[object] = []
        self.clients: List[object] = []
        self.ams: List[object] = []
        self.lihds: List[object] = []
        self._conn_index: Dict[Tuple[str, int, str, int], object] = {}

        # Cross-client transfer accounting (block conservation).
        # (uploader peer ID, downloader peer ID) -> bytes, at the moment
        # the uploader queued / the downloader received the block.
        self._blocks_sent: Dict[Tuple[str, str], float] = {}
        self._blocks_received: Dict[Tuple[str, str], float] = {}
        # id(client) -> {remote peer ID -> bytes received from it}; what
        # the ledger check compares raw credit against.
        self._received_from: Dict[int, Dict[str, float]] = {}

        # Trace-stream state machines.
        self._progress: Dict[str, float] = {}
        self._am_status: Dict[Tuple[str, str], str] = {}
        self._ma_mode: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> "Auditor":
        """Bind to ``sim``: kernel hook, trace sink, component registry."""
        if self.sim is not None:
            raise RuntimeError("auditor is already attached")
        if sim.audit is not None:
            raise RuntimeError("simulator already has an auditor attached")
        self.sim = sim
        self._clock = lambda: sim.now
        sim.audit = self
        sim.trace.attach(self)
        return self

    # ------------------------------------------------------------------
    # Component registration (called from constructors)
    # ------------------------------------------------------------------
    def register_direction(self, direction) -> None:
        self.directions.append(direction)
        self.queues.append(direction.queue)

    def register_channel(self, channel) -> None:
        self.channels.append(channel)
        self.queues.append(channel.uplink_queue)
        self.queues.append(channel.downlink_queue)

    def register_bucket(self, bucket) -> None:
        self.buckets.append(bucket)

    def register_connection(self, conn) -> None:
        self.connections.append(conn)
        self._conn_index[
            (conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        ] = conn

    def register_client(self, client) -> None:
        self.clients.append(client)
        self._received_from.setdefault(id(client), {})

    def register_am(self, am) -> None:
        self.ams.append(am)

    def register_lihd(self, lihd) -> None:
        self.lihds.append(lihd)

    # ------------------------------------------------------------------
    # Transfer accounting hooks (called from the client's data path)
    # ------------------------------------------------------------------
    def note_block_sent(self, client, remote_id: Optional[str], nbytes: int) -> None:
        """An uploader queued ``nbytes`` of piece data toward ``remote_id``."""
        if remote_id is None:
            return
        key = (client.peer_id, remote_id)
        self._blocks_sent[key] = self._blocks_sent.get(key, 0.0) + nbytes

    def note_block_received(self, client, remote_id: Optional[str], nbytes: int) -> None:
        """A downloader received ``nbytes`` of piece data from ``remote_id``."""
        if remote_id is None:
            return
        key = (remote_id, client.peer_id)
        self._blocks_received[key] = self._blocks_received.get(key, 0.0) + nbytes
        per_client = self._received_from.setdefault(id(client), {})
        per_client[remote_id] = per_client.get(remote_id, 0.0) + nbytes

    # ------------------------------------------------------------------
    # Kernel hook
    # ------------------------------------------------------------------
    def before_event(self, event_time: float) -> None:
        """Called by the kernel for every event about to be dispatched."""
        last = self._last_event_time
        if last is not None and event_time < last - TIME_EPS:
            self.report(
                "sim.event_monotonic",
                f"event queue went backwards: dispatching t={event_time} "
                f"after t={last}",
            )
        self._last_event_time = event_time
        self.events_seen += 1
        if self.events_seen % SWEEP_INTERVAL == 0:
            self.sweep()

    def on_run_end(self) -> None:
        """Called by the kernel when a :meth:`run` returns: final sweep."""
        self.sweep()

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """Run every registered checker once, reporting all violations."""
        self.sweeps += 1
        for queue in self.queues:
            self._run(checkers.check_queue, "net.queue", queue)
        for direction in self.directions:
            self._run(checkers.check_direction, "net.link", direction)
        for channel in self.channels:
            self._run(checkers.check_channel, "net.wireless", channel)
        for bucket in self.buckets:
            self._run(checkers.check_bucket, "bittorrent.bucket", bucket)
        self._sweep_connections()
        self._sweep_clients()
        for am in self.ams:
            self._run(checkers.check_am, "wp2p.am", am)
        for lihd in self.lihds:
            self._run(checkers.check_lihd, "wp2p.lihd", lihd)

    def _run(self, checker, name: str, *components) -> None:
        for message in checker(*components):
            self.report(name, message)

    def _sweep_connections(self) -> None:
        live = [c for c in self.connections if not c._finished]
        if len(live) != len(self.connections):
            self.connections = live
            self._conn_index = {
                (c.local_ip, c.local_port, c.remote_ip, c.remote_port): c
                for c in live
            }
        for conn in live:
            self._run(checkers.check_connection, "tcp.connection", conn)
            peer = self._conn_index.get(
                (conn.remote_ip, conn.remote_port, conn.local_ip, conn.local_port)
            )
            if peer is not None and not peer._finished:
                self._run(checkers.check_connection_pair, "tcp.pair", conn, peer)

    def _sweep_clients(self) -> None:
        for client in self.clients:
            self._run(
                checkers.check_client,
                "bittorrent.client",
                client,
                self._received_from.get(id(client), {}),
            )
        for key, received in self._blocks_received.items():
            sent = self._blocks_sent.get(key, 0.0)
            if received > sent + checkers.EPS:
                uploader, downloader = key
                self.report(
                    "bittorrent.transfer",
                    f"{downloader} received {received} piece bytes from "
                    f"{uploader} which only sent {sent}",
                )

    # ------------------------------------------------------------------
    # Trace-stream checks (TraceSink interface)
    # ------------------------------------------------------------------
    def write(self, record: TraceRecord) -> None:
        t = record.get("t")
        if isinstance(t, (int, float)):
            last = self._last_trace_time
            if last is not None and t < last - TIME_EPS:
                self.report(
                    "trace.time_monotonic",
                    f"trace timestamp went backwards: {t} after {last} "
                    f"({record.get('layer')}/{record.get('event')})",
                )
            self._last_trace_time = t if last is None else max(last, float(t))
        handler = self._TRACE_CHECKS.get(
            (record.get("layer"), record.get("event"))
        )
        if handler is not None:
            handler(self, record)

    def _check_announce(self, record: TraceRecord) -> None:
        left = record.get("left")
        if isinstance(left, (int, float)) and left < 0:
            self.report(
                "bittorrent.announce",
                f"client {record.get('client')} announced negative bytes "
                f"left ({left})",
            )

    def _check_piece_complete(self, record: TraceRecord) -> None:
        client = str(record.get("client"))
        progress = record.get("progress")
        if not isinstance(progress, (int, float)):
            return
        if not 0.0 <= progress <= 1.0:
            self.report(
                "bittorrent.progress",
                f"client {client} reported progress {progress} outside [0, 1]",
            )
        last = self._progress.get(client)
        if last is not None and progress < last - 1e-9:
            self.report(
                "bittorrent.progress",
                f"client {client} progress regressed from {last} to {progress}",
            )
        self._progress[client] = max(last or 0.0, float(progress))

    def _check_am_state(self, record: TraceRecord) -> None:
        status = record.get("status")
        key = (str(record.get("host")), str(record.get("flow")))
        if status not in _LEGAL_AM_STATUS:
            self.report(
                "wp2p.am", f"illegal AM status {status!r} for flow {key}"
            )
            return
        last = self._am_status.get(key)
        if last == status:
            # am_state is emitted on *transitions* only; a repeat means
            # the filter claims young->young or mature->mature.
            self.report(
                "wp2p.am",
                f"AM flow {key} reported a non-transition: {last!r} -> "
                f"{status!r}",
            )
        self._am_status[key] = str(status)

    def _check_ma_mode(self, record: TraceRecord) -> None:
        mode = record.get("mode")
        if mode not in _LEGAL_MA_MODES:
            self.report("wp2p.ma", f"illegal fetch mode {mode!r}")
            return
        owner = record.get("client")
        pr = record.get("pr")
        if isinstance(pr, (int, float)) and not 0.0 <= pr <= 1.0:
            self.report("wp2p.ma", f"fetch-mode pr {pr} outside [0, 1]")
        if owner is None:
            return  # untagged selector: cannot track per-owner flips
        last = self._ma_mode.get(str(owner))
        if last == mode:
            self.report(
                "wp2p.ma",
                f"MA selector {owner} reported a non-flip: {last!r} -> "
                f"{mode!r}",
            )
        self._ma_mode[str(owner)] = str(mode)

    def _check_lihd_update(self, record: TraceRecord) -> None:
        decision = record.get("decision")
        if decision not in _LEGAL_LIHD_DECISIONS:
            self.report(
                "wp2p.lihd",
                f"client {record.get('client')} illegal LIHD decision "
                f"{decision!r}",
            )
        dec_count = record.get("dec_count")
        if isinstance(dec_count, (int, float)) and dec_count < 0:
            self.report(
                "wp2p.lihd",
                f"client {record.get('client')} negative LIHD decrease "
                f"count {dec_count}",
            )

    _TRACE_CHECKS: Dict[Tuple[str, str], Callable] = {
        ("bittorrent", "announce"): _check_announce,
        ("bittorrent", "piece_complete"): _check_piece_complete,
        ("wp2p", "am_state"): _check_am_state,
        ("wp2p", "ma_fetch_mode"): _check_ma_mode,
        ("wp2p", "lihd_update"): _check_lihd_update,
    }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, checker: str, message: str) -> None:
        """Record one violation; raise unless in collect mode."""
        violation = Violation(self._clock(), checker, message)
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(violation)
        if self.raise_on_violation:
            raise AuditViolation(violation)

    @property
    def ok(self) -> bool:
        """True while no invariant has failed."""
        return not self.violations
