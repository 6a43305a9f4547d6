"""The bi-directional TCP connection.

This is a faithful-enough TCP for the paper's purposes: both directions of
one connection carry bulk data simultaneously ("true bi-directional mode",
§3.2), with the exact acknowledgment rules the paper's analysis rests on:

* every segment except the initial SYN carries a valid cumulative ACK, so
  ACKs are **piggybacked** on reverse-path data whenever reverse data is
  flowing (and pure 40-byte ACKs otherwise, after a delayed-ACK window);
* duplicate ACKs are **never piggybacked** — on an out-of-order arrival the
  receiver emits an immediate pure ACK, and the sender counts only pure
  ACKs as duplicates;
* NewReno congestion control with fast retransmit/recovery and RTO backoff.

Applications exchange *messages* (objects exposing ``wire_length``); the
stream machinery in :mod:`repro.tcp.streams` maps them onto sequence space
and re-delivers them in order on the far side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..net.host import Host
from ..net.packet import Packet
from ..sim import Simulator, Timer
from .congestion import FAST_RECOVERY, NewRenoCongestionControl
from .rtt import RTTEstimator
from .segment import ACK, DEFAULT_MSS, FIN, RST, SYN, TCPSegment, pure_ack
from .streams import ReceiveStream, SendStream

# Connection states (simplified TCP state machine).
CLOSED = "closed"
SYN_SENT = "syn_sent"
SYN_RCVD = "syn_rcvd"
ESTABLISHED = "established"
FIN_WAIT = "fin_wait"
CLOSE_WAIT = "close_wait"
LAST_ACK = "last_ack"
CLOSING = "closing"

#: Seconds a receiver holds a pure ACK for a second segment to arrive.
DELACK_TIMEOUT = 0.1
#: Back-to-back retransmission timeouts after which a connection gives up.
MAX_CONSECUTIVE_TIMEOUTS = 7
#: SYN (or SYN-ACK) retransmissions before a handshake gives up.
MAX_SYN_RETRIES = 5


def _released() -> None:
    """What a finished connection's timers fire instead of its methods."""


@dataclass
class TCPConfig:
    """Tunables shared by every connection on a stack."""

    mss: int = DEFAULT_MSS
    rwnd: int = 262_144
    initial_rto: float = 1.0
    min_rto: float = 0.2
    max_rto: float = 60.0
    delack_segments: int = 2
    initial_cwnd_segments: int = 2
    track_cwnd: bool = False
    sack: bool = False
    """Enable SACK-lite (RFC 2018-style options on pure ACKs plus a sender
    scoreboard): hole-targeted retransmission during fast recovery instead
    of plain NewReno.  Off by default — the paper's era stacks negotiated
    SACK, but the baseline figures are calibrated on NewReno."""


@dataclass
class ConnectionStats:
    """Per-connection counters used by tests and experiments."""

    segments_sent: int = 0
    segments_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_acked: int = 0
    payload_bytes_delivered: int = 0
    pure_acks_sent: int = 0
    dupacks_sent: int = 0
    dupacks_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    piggybacked_acks: int = 0
    cwnd_history: Sequence[Tuple[float, int]] = ()  # a list under track_cwnd


class TCPConnection:
    """One TCP connection endpoint (socket-like API).

    Application callbacks:

    ``on_established()``
        handshake completed.
    ``on_message(message)``
        an application message arrived, in stream order.
    ``on_close(reason)``
        connection finished; ``reason`` is ``"closed"`` for a graceful
        shutdown, else an error string ("timeout", "reset", "aborted").
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_ip: str,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        config: Optional[TCPConfig] = None,
        unregister: Optional[Callable[["TCPConnection"], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config or TCPConfig()
        self._unregister = unregister

        self.state = CLOSED
        self.snd = SendStream(1)  # SYN consumes sequence number 0
        self.rcv: Optional[ReceiveStream] = None
        self.cc = NewRenoCongestionControl(
            mss=self.config.mss,
            initial_cwnd_segments=self.config.initial_cwnd_segments,
        )
        self.rtt = RTTEstimator(
            initial_rto=self.config.initial_rto,
            min_rto=self.config.min_rto,
            max_rto=self.config.max_rto,
        )
        self.stats = ConnectionStats(cwnd_history=[] if self.config.track_cwnd else ())

        self._rto_timer = Timer(sim, self._on_rto)
        self._delack_timer = Timer(sim, self._on_delack)
        self._dupacks = 0
        self._peer_rwnd = self.config.rwnd
        self._last_ack_sent = 0
        self._syn_retries = 0
        self._consecutive_timeouts = 0
        self._timed_end: Optional[int] = None
        self._timed_at = 0.0
        self._timed_valid = False
        self._max_sent = 1  # highest sequence ever transmitted (Karn's rule)
        self._fin_pending = False
        self._fin_sent = False
        self._local_fin_seq: Optional[int] = None
        self._remote_fin_seq: Optional[int] = None
        self._finished = False
        # SACK-lite sender state, built only under TCPConfig.sack: the
        # scoreboard, and hole start -> dupack count when (re)sent; a hole
        # may be resent after 4 further dupacks (its retransmission was
        # likely lost too).
        self._sack_scoreboard: Sequence[Tuple[int, int]] = [] if self.config.sack else ()
        self._holes_retransmitted = {} if self.config.sack else None

        # Application callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_message: Optional[Callable[[Any], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None

        audit = sim.audit
        if audit is not None:
            audit.register_connection(self)

    @property
    def _trace_label(self) -> str:
        """Stable connection label for structured trace events."""
        return (
            f"{self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port}"
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.state in (ESTABLISHED, CLOSE_WAIT)

    @property
    def closed(self) -> bool:
        return self.state == CLOSED and self._finished

    @property
    def send_buffer_bytes(self) -> int:
        """Bytes written by the application but not yet acknowledged."""
        return self.snd.buffered_bytes

    @property
    def key(self) -> Tuple[int, str, int]:
        return (self.local_port, self.remote_ip, self.remote_port)

    def connect(self) -> None:
        """Active open: transmit SYN and await SYN-ACK."""
        if self.state != CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = SYN_SENT
        self._send_syn()

    def open_passive(self, syn: TCPSegment) -> None:
        """Passive open from a listener: process the peer's SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"open_passive() in state {self.state}")
        self.state = SYN_RCVD
        self.rcv = ReceiveStream(syn.seq + 1)
        self._last_ack_sent = syn.seq + 1
        self._peer_rwnd = syn.rwnd
        self._send_segment(
            TCPSegment(
                self.local_port, self.remote_port, 0, self.rcv.rcv_nxt,
                SYN | ACK, 0, (), self.config.rwnd,
            )
        )
        self._rto_timer.start(self.rtt.rto)

    def send_message(self, message: Any) -> None:
        """Queue an application message for in-order delivery to the peer."""
        length = int(getattr(message, "wire_length"))
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        self.snd.write_message(message, length)
        if self.established:
            self._try_output()

    def close(self) -> None:
        """Graceful close: FIN after all queued data is transmitted."""
        if self.state in (CLOSED,) or self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        # During the handshake the FIN is deferred: establishment calls
        # _try_output(), which drains queued data and then emits the FIN.
        if self.established:
            self._try_output()

    def abort(self, reason: str = "aborted") -> None:
        """Hard close: best-effort RST to the peer, immediate teardown."""
        if self._finished:
            return
        if self.state not in (CLOSED,):
            ack = self.rcv.rcv_nxt if self.rcv is not None else 0
            self._send_segment(
                TCPSegment(
                    self.local_port, self.remote_port, self.snd.nxt, ack,
                    RST | ACK, 0, (), self.config.rwnd,
                ),
                count=False,
            )
        self._finish(reason)

    # ------------------------------------------------------------------
    # Segment reception (called by the stack demux)
    # ------------------------------------------------------------------
    def receive_segment(self, segment: TCPSegment) -> None:
        if self._finished:
            return
        self.stats.segments_received += 1
        flags = segment.flags

        if flags & RST:
            self._finish("reset")
            return

        if self.state == SYN_SENT:
            self._receive_in_syn_sent(segment)
            return
        if self.state == SYN_RCVD:
            if flags & SYN:  # retransmitted SYN: re-ack it
                self._send_pure_ack()
                return
            if flags & ACK and segment.ack is not None and segment.ack >= 1:
                self._become_established()
            # fall through: the ACK may carry data

        if self.rcv is None:
            return

        self._process_ack(segment)
        self._process_data(segment)

    def _receive_in_syn_sent(self, segment: TCPSegment) -> None:
        if not (segment.has(SYN) and segment.has(ACK)):
            return
        if segment.ack != 1:
            self.abort("bad_handshake")
            return
        self.rcv = ReceiveStream(segment.seq + 1)
        self._last_ack_sent = self.rcv.rcv_nxt
        self._peer_rwnd = segment.rwnd
        self._rto_timer.cancel()
        self._syn_retries = 0
        self._become_established()
        # Third handshake step: pure ACK (piggybacked onto data if any).
        if self._try_output() == 0:
            self._send_pure_ack()

    def _become_established(self) -> None:
        if self.state in (SYN_SENT, SYN_RCVD):
            self.state = ESTABLISHED
            self._rto_timer.cancel()
            if self.sim.trace.enabled:
                self.sim.trace.event("tcp", "established", conn=self._trace_label)
            if self.on_established is not None:
                self.on_established()
            self._try_output()

    # ------------------------------------------------------------------
    # ACK-side processing
    # ------------------------------------------------------------------
    def _process_ack(self, segment: TCPSegment) -> None:
        """The ACK clock: runs once per received segment.

        The common connection has no FIN out, no SACK scoreboard and
        nothing new to do on a piggybacked repeat of ``snd.una``; those
        branches of ``_ack_advance`` / ``_flight_size`` /
        ``_maybe_finish_close`` are taken inline here.
        """
        ack = segment.ack
        if not segment.flags & ACK or ack is None:
            return
        self._peer_rwnd = segment.rwnd
        fin_sent = self._fin_sent
        if ack > self._max_sent + (1 if fin_sent else 0):
            return  # acks data we never sent; ignore

        if segment.sack_blocks and self.config.sack:
            self._sack_update(segment.sack_blocks)

        snd = self.snd
        if ack > snd.una:
            if fin_sent:
                acked = self._ack_advance(ack)
            else:
                acked = snd.ack_to(ack)  # ack <= _max_sent <= snd.end
            if self._holes_retransmitted:
                self._holes_retransmitted.clear()
            if self._sack_scoreboard:
                self._sack_prune()
            self._dupacks = 0
            self._consecutive_timeouts = 0
            if self._timed_end is not None and ack >= self._timed_end:
                if self._timed_valid:
                    self.rtt.sample(self.sim._now - self._timed_at)
                self._timed_end = None
            cc = self.cc
            was_recovery = cc.state == FAST_RECOVERY
            retransmit = cc.on_new_ack(acked, snd.nxt, ack)
            if was_recovery and cc.state != FAST_RECOVERY and self.sim.trace.enabled:
                self.sim.trace.event(
                    "tcp", "recovery_exit", conn=self._trace_label,
                    cwnd=cc.cwnd, ssthresh=cc.ssthresh,
                )
            self.stats.payload_bytes_acked += acked
            if retransmit:
                self._retransmit_head()
            if (self._flight_size() if fin_sent else snd.nxt - snd.una) > 0:
                self._rto_timer.start(self.rtt.rto)
            else:
                self._rto_timer.cancel()
                self.rtt.reset_backoff()
            if fin_sent:
                self._maybe_finish_close(ack)
            self._try_output()
        elif (
            segment.payload_len == 0
            and segment.flags == ACK  # a pure ACK (segment.is_pure_ack)
            and ack == snd.una
            and (flight_before := self._flight_size()) > 0
        ):
            self._dupacks += 1
            self.stats.dupacks_received += 1
            if self.cc.on_dupack(self._dupacks, flight_before, snd.nxt):
                self.stats.fast_retransmits += 1
                if self.sim.trace.enabled:
                    self.sim.trace.event(
                        "tcp", "fast_retransmit", conn=self._trace_label,
                        ack=ack, cwnd=self.cc.cwnd, ssthresh=self.cc.ssthresh,
                    )
                self._retransmit_head()
            elif (
                self.config.sack
                and self.cc.in_recovery
                and self._sack_scoreboard
            ):
                self._retransmit_next_hole()
            self._try_output()  # window may have inflated

    def _ack_advance(self, ack: int) -> int:
        """Advance snd.una to ``ack``, accounting for SYN/FIN numbers."""
        data_ack = ack
        if self._local_fin_seq is not None and ack > self._local_fin_seq:
            data_ack = self._local_fin_seq
        acked = self.snd.ack_to(min(data_ack, self.snd.end))
        if self._local_fin_seq is not None and ack > self._local_fin_seq:
            self.snd.una = ack  # FIN's sequence number acknowledged
        return acked

    def _flight_size(self) -> int:
        flight = self.snd.flight_size
        if self._fin_sent and self._local_fin_seq is not None and self.snd.una <= self._local_fin_seq:
            flight += 1
        return flight

    def _maybe_finish_close(self, ack: int) -> None:
        if (
            self._fin_sent
            and self._local_fin_seq is not None
            and ack > self._local_fin_seq
        ):
            if self.state == FIN_WAIT:
                if self._remote_fin_seq is not None:
                    self._finish("closed")
            elif self.state in (LAST_ACK, CLOSING):
                self._finish("closed")

    # ------------------------------------------------------------------
    # Data-side processing
    # ------------------------------------------------------------------
    def _process_data(self, segment: TCPSegment) -> None:
        rcv = self.rcv
        if rcv is None or self._finished:
            return
        has_payload = segment.payload_len > 0
        fin = segment.flags & FIN
        if not has_payload and not fin:
            return

        if fin and self._remote_fin_seq is None:
            self._remote_fin_seq = segment.seq + segment.payload_len

        advanced = False
        if has_payload:
            advanced = rcv.add(segment.seq, segment.payload_len, segment.messages)
            if advanced:
                self.stats.payload_bytes_delivered = rcv.bytes_delivered
                if rcv._pending_heap:  # else nothing can be deliverable
                    for message in rcv.pop_deliverable():
                        if self.on_message is not None:
                            self.on_message(message)
                    if self._finished:
                        return

        if (
            self._remote_fin_seq is not None
            and rcv.rcv_nxt == self._remote_fin_seq
            and not rcv._segments  # no reassembly gap
        ):
            rcv.rcv_nxt += 1
            self._on_remote_fin()
            self._send_pure_ack()
            return

        if has_payload and not advanced:
            # Out-of-order or duplicate: immediate DUPACK, always pure
            # (never piggybacked on data — the rule §3.2 analyzes).
            self.stats.dupacks_sent += 1
            self._send_pure_ack()
            return

        if advanced:
            self._ack_policy()

    def _ack_policy(self) -> None:
        """Acknowledge received data: piggyback, delay, or send pure."""
        assert self.rcv is not None
        sent = self._try_output()
        if sent > 0:
            return  # ACK rode out on a data segment
        config = self.config
        pending = self.rcv.rcv_nxt - self._last_ack_sent
        if pending >= config.delack_segments * config.mss:
            self._send_pure_ack()
        elif self._delack_timer._live is None:  # not armed
            self._delack_timer.start(DELACK_TIMEOUT)

    def _on_delack(self) -> None:
        if self.rcv is not None and self.rcv.rcv_nxt > self._last_ack_sent:
            self._send_pure_ack()

    def _on_remote_fin(self) -> None:
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT:
            fin_acked = (
                self._local_fin_seq is not None and self.snd.una > self._local_fin_seq
            )
            if fin_acked:
                self._finish("closed")
            else:
                self.state = CLOSING

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------
    def _try_output(self) -> int:
        """Send as much new data as the window allows; returns segments sent."""
        snd = self.snd
        config = self.config
        if snd.nxt >= snd.end and not self._fin_pending and not config.track_cwnd:
            return 0  # nothing unsent, no FIN owed: the usual ACK-clock call
        if (
            self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT, CLOSING, LAST_ACK)
            or self.rcv is None
        ):
            return 0
        sent = 0
        window = min(self.cc.cwnd, self._peer_rwnd)
        # Once our FIN is out nothing new may follow it, but data *before*
        # the FIN may still be (re)transmitted — e.g. go-back-N after RTO.
        limit = snd.end
        if self._fin_sent and self._local_fin_seq is not None:
            limit = self._local_fin_seq
        while snd.nxt < limit:
            budget = window - (snd.nxt - snd.una)  # flight_size, inlined
            if budget <= 0:
                break
            take = min(config.mss, limit - snd.nxt, budget)
            start = snd.nxt
            end = start + take
            messages = snd.messages_in(start, end)
            segment = TCPSegment(
                self.local_port, self.remote_port, start, self.rcv.rcv_nxt,
                ACK, take, messages, config.rwnd,
            )
            snd.nxt = end
            # Karn's rule: only time segments that are not retransmissions
            # (go-back-N after an RTO resends below _max_sent).
            if self._timed_end is None and start >= self._max_sent:
                self._timed_end = end
                self._timed_at = self.sim._now
                self._timed_valid = True
            if end > self._max_sent:
                self._max_sent = end
            self._send_segment(segment)
            self.stats.payload_bytes_sent += take
            if sent == 0 and take > 0:
                self.stats.piggybacked_acks += 1
            if self._rto_timer._live is None:  # not armed
                self._rto_timer.start(self.rtt.rto)
            sent += 1
        if (
            self._fin_pending
            and not self._fin_sent
            and self.snd.unsent_bytes == 0
            and self.state in (ESTABLISHED, CLOSE_WAIT)
        ):
            self._send_fin()
        if config.track_cwnd:
            self.stats.cwnd_history.append((self.sim.now, self.cc.cwnd))
        return sent

    def _send_fin(self) -> None:
        assert self.rcv is not None
        self._fin_sent = True
        self._local_fin_seq = self.snd.nxt
        segment = TCPSegment(
            self.local_port, self.remote_port, self.snd.nxt, self.rcv.rcv_nxt,
            FIN | ACK, 0, (), self.config.rwnd,
        )
        self._send_segment(segment)
        self.state = LAST_ACK if self.state == CLOSE_WAIT else FIN_WAIT
        if not self._rto_timer.armed:
            self._rto_timer.start(self.rtt.rto)

    def _send_syn(self) -> None:
        # The one packet with no ACK flag (initial SYN).
        segment = TCPSegment(
            self.local_port, self.remote_port, 0, None, SYN, 0, (), self.config.rwnd
        )
        self._send_segment(segment)
        self._rto_timer.start(self.rtt.rto)

    def _send_pure_ack(self) -> None:
        assert self.rcv is not None
        self.stats.pure_acks_sent += 1
        sack_blocks: Tuple[Tuple[int, int], ...] = ()
        if self.config.sack and self.rcv.has_gap:
            sack_blocks = self.rcv.sack_ranges(3)
        self._send_segment(
            TCPSegment(
                self.local_port, self.remote_port, self.snd.nxt,
                self.rcv.rcv_nxt, ACK, 0, (), self.config.rwnd,
                sack_blocks=sack_blocks,
            )
        )

    def _send_segment(self, segment: TCPSegment, count: bool = True) -> None:
        if count:
            self.stats.segments_sent += 1
        ack = segment.ack
        if segment.flags & ACK and ack is not None:
            if ack > self._last_ack_sent:
                self._last_ack_sent = ack
            if self._delack_timer._live is not None:  # armed
                self._delack_timer.cancel()
        self.host.send(Packet(self.local_ip, self.remote_ip, segment))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        if self._finished:
            return
        if self.state == SYN_SENT:
            self._syn_retries += 1
            if self._syn_retries > MAX_SYN_RETRIES:
                self._finish("timeout")
                return
            self.rtt.backoff()
            self._send_syn()
            return
        if self.state == SYN_RCVD:
            self._syn_retries += 1
            if self._syn_retries > MAX_SYN_RETRIES:
                self._finish("timeout")
                return
            self.rtt.backoff()
            assert self.rcv is not None
            self._send_segment(
                TCPSegment(
                    self.local_port, self.remote_port, 0, self.rcv.rcv_nxt,
                    SYN | ACK, 0, (), self.config.rwnd,
                )
            )
            self._rto_timer.start(self.rtt.rto)
            return

        if self._flight_size() == 0:
            return
        self._consecutive_timeouts += 1
        self.stats.timeouts += 1
        if self._consecutive_timeouts > MAX_CONSECUTIVE_TIMEOUTS:
            self._finish("timeout")
            return
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "tcp", "rto", conn=self._trace_label,
                consecutive=self._consecutive_timeouts, rto=self.rtt.rto,
                flight=self._flight_size(), cwnd=self.cc.cwnd,
            )
        self.cc.on_timeout(self._flight_size())
        self.rtt.backoff()
        self._dupacks = 0
        self._timed_end = None
        if self.config.sack:
            self._sack_scoreboard = []
            self._holes_retransmitted.clear()
        if (
            self._fin_sent
            and self._local_fin_seq is not None
            and self.snd.una >= self._local_fin_seq
        ):
            # Only the FIN is outstanding.
            self._retransmit_head()
        else:
            # Go-back-N: rewind snd_nxt and let slow start resend the
            # whole unacknowledged window (classic post-RTO behaviour).
            self.stats.retransmissions += 1
            self.snd.nxt = self.snd.una
            self._try_output()
        self._rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # SACK-lite scoreboard
    # ------------------------------------------------------------------
    def _sack_update(self, blocks: Tuple[Tuple[int, int], ...]) -> None:
        """Merge reported received ranges into the sender scoreboard."""
        for start, end in blocks:
            if end <= self.snd.una or end <= start:
                continue
            self._sack_insert(max(start, self.snd.una), end)

    def _sack_insert(self, start: int, end: int) -> None:
        board = self._sack_scoreboard
        merged: List[Tuple[int, int]] = []
        placed = False
        for s, e in board:
            if e < start or s > end:
                merged.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        merged.append((start, end))
        merged.sort()
        self._sack_scoreboard = merged

    def _sack_prune(self) -> None:
        self._sack_scoreboard = [
            (s, e) for s, e in self._sack_scoreboard if e > self.snd.una
        ]

    def _sack_covered(self, seq: int) -> Optional[int]:
        """If ``seq`` lies in a SACKed range, return that range's end."""
        for s, e in self._sack_scoreboard:
            if s <= seq < e:
                return e
        return None

    def _loss_ceiling(self) -> int:
        """Sequence below which un-SACKed data is considered lost.

        Data is inferred lost only when SACKed data exists *above* it
        (RFC 3517's intuition); anything above the highest SACKed range is
        merely un-acknowledged, not missing.
        """
        if not self._sack_scoreboard:
            return self.snd.una
        return self._sack_scoreboard[-1][0]

    def _first_hole(self) -> Optional[Tuple[int, int]]:
        """The lowest unacknowledged, un-SACKed range, capped at one MSS.

        The duplicate ACKs that brought us here already witness the loss of
        the first un-SACKed segment, so no loss-inference ceiling applies
        (if ``snd_una`` itself is SACK-covered — lost cumulative ACKs —
        the target is the first byte after the covered prefix, never the
        already-received head)."""
        start = self.snd.una
        while True:
            covered_end = self._sack_covered(start)
            if covered_end is None:
                break
            start = covered_end
        if start >= self.snd.nxt:
            return None
        end = start + self.config.mss
        for s, _e in self._sack_scoreboard:
            if start < s < end:
                end = s
                break
        end = min(end, self.snd.nxt)
        if end <= start:
            return None
        return start, end

    def _retransmit_next_hole(self) -> None:
        """During SACK recovery, resend the next inferred-lost hole."""
        ceiling = self._loss_ceiling()
        hole = None
        start = self.snd.una
        while start < ceiling and start < self.snd.nxt:
            covered_end = self._sack_covered(start)
            if covered_end is not None:
                start = covered_end
                continue
            sent_at = self._holes_retransmitted.get(start)
            if sent_at is None or self._dupacks - sent_at >= 4:
                hole = start
                break
            start += self.config.mss
        if hole is None:
            return
        end = hole + self.config.mss
        for s, _e in self._sack_scoreboard:
            if hole < s < end:
                end = s
                break
        end = min(end, self.snd.nxt)
        if end <= hole:
            return
        self._holes_retransmitted[hole] = self._dupacks
        self.stats.retransmissions += 1
        assert self.rcv is not None
        messages = self.snd.messages_in(hole, end)
        segment = TCPSegment(
            self.local_port, self.remote_port, hole, self.rcv.rcv_nxt,
            ACK, end - hole, messages, self.config.rwnd,
        )
        if self._timed_end is not None and self._timed_end > hole:
            self._timed_valid = False
        self._send_segment(segment)
        # Give the retransmission a full RTO to be acknowledged before the
        # (stale) timer can fire mid-recovery.
        self._rto_timer.start(self.rtt.rto)

    def _retransmit_head(self) -> None:
        """Retransmit the segment at snd.una (data or FIN)."""
        assert self.rcv is not None
        self.stats.retransmissions += 1
        start = self.snd.una
        if (
            self._fin_sent
            and self._local_fin_seq is not None
            and start >= self._local_fin_seq
        ):
            segment = TCPSegment(
                self.local_port, self.remote_port, self._local_fin_seq,
                self.rcv.rcv_nxt, FIN | ACK, 0, (), self.config.rwnd,
            )
        else:
            end = min(start + self.config.mss, self.snd.nxt)
            if self.config.sack:
                hole = self._first_hole()
                if hole is not None:
                    start, end = hole
                    self._holes_retransmitted[start] = self._dupacks
            if end <= start:
                return
            messages = self.snd.messages_in(start, end)
            segment = TCPSegment(
                self.local_port, self.remote_port, start, self.rcv.rcv_nxt,
                ACK, end - start, messages, self.config.rwnd,
            )
        # Karn's rule: a retransmission covering the timed range poisons it.
        if self._timed_end is not None and self._timed_end > start:
            self._timed_valid = False
        self._send_segment(segment)
        # Restart the retransmission timer: without this, a timer armed at
        # the last new ACK can expire moments after a fast retransmit and
        # needlessly collapse an almost-complete recovery.
        self._rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _finish(self, reason: str) -> None:
        if self._finished:
            return
        self._finished = True
        self.state = CLOSED
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "tcp", "close", conn=self._trace_label, reason=reason,
                retransmissions=self.stats.retransmissions,
                timeouts=self.stats.timeouts,
            )
        self._rto_timer.cancel()
        self._delack_timer.cancel()
        if self._unregister is not None:
            self._unregister(self)
        if self.on_close is not None:
            self.on_close(reason)
        # The last application callback has returned: drop every reference
        # that closes a cycle through this endpoint, so a closed connection
        # is freed by reference count.  The timers get a no-op, not None,
        # so that a timer armed after the finish expires harmlessly.  No
        # path arms one: TCPStack._accept answers a SYN whose listener
        # refused the connection with a RST instead of opening the
        # finished endpoint.
        self.on_established = self.on_message = self.on_close = None
        self._unregister = None
        self._rto_timer.callback = self._delack_timer.callback = _released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCPConnection({self.local_ip}:{self.local_port} -> "
            f"{self.remote_ip}:{self.remote_port}, {self.state})"
        )
