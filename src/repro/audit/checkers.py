"""The invariant checkers: conservation laws as generator functions.

Each checker inspects one component (or a pair) and yields one human-
readable message per violated invariant; an empty iteration means the
component is consistent.  Checkers are pure inspection — they never
mutate simulation state beyond idempotent lazy refills — so running a
sweep mid-simulation cannot change the run's outcome.

They are deliberately duck-typed and import the instrumented layers
lazily (inside the function bodies): :mod:`repro.audit` must stay
import-light so the kernel can depend on it without cycles.

The laws, layer by layer:

``net`` (queues, wired link directions, the wireless channel)
    Packets and bytes are conserved: everything enqueued is either still
    queued, dequeued, or was explicitly cleared; everything dequeued by a
    transmitter was sent, is in flight, or was recorded as a loss.
``bittorrent`` (token buckets, piece manager, availability, ledger)
    Token buckets stay within ``[0, burst]``; the piece bitfield, byte
    counter, partial-piece states and availability map agree with each
    other; a ledger never credits more bytes than the counterpart peer
    actually delivered.
``tcp`` (per connection and per connection *pair*)
    Sequence-space sanity (``una <= nxt <= end``), RTO clamping, and the
    cross-host law that a receiver can never be ahead of what its sender
    transmitted.
``wp2p`` (AM / IA state machines)
    AM flow status always matches the congestion-window estimate against
    γ; LIHD's upload cap stays inside ``[u_floor, u_max]`` and is what
    the client's token bucket actually enforces.
"""

from __future__ import annotations

from typing import Iterator

from ..summation import left_sum

#: Absolute slack for float byte/second accounting.
EPS = 1e-6


# ----------------------------------------------------------------------
# net layer
# ----------------------------------------------------------------------
def check_queue(q) -> Iterator[str]:
    """Packet and byte conservation for one :class:`DropTailQueue`."""
    if q.enqueued != q.dequeued + q.depth_packets + q.cleared:
        yield (
            f"queue {q.name}: packet conservation broken — "
            f"enqueued={q.enqueued} != dequeued={q.dequeued} "
            f"+ depth={q.depth_packets} + cleared={q.cleared}"
        )
    if q.bytes_enqueued != q.bytes_dequeued + q.depth_bytes + q.cleared_bytes:
        yield (
            f"queue {q.name}: byte conservation broken — "
            f"bytes_enqueued={q.bytes_enqueued} != "
            f"bytes_dequeued={q.bytes_dequeued} + depth={q.depth_bytes} "
            f"+ cleared={q.cleared_bytes}"
        )
    if q.depth_bytes < 0:
        yield f"queue {q.name}: negative byte depth {q.depth_bytes}"
    if q.depth_packets > q.capacity_packets:
        yield (
            f"queue {q.name}: depth {q.depth_packets} exceeds capacity "
            f"{q.capacity_packets}"
        )


def check_direction(d) -> Iterator[str]:
    """One wired link direction: dequeued packets are sent or in flight."""
    in_flight = 1 if d._busy else 0
    if d.queue.dequeued != d.packets_sent + in_flight:
        yield (
            f"link {d.queue.name}: dequeued={d.queue.dequeued} != "
            f"packets_sent={d.packets_sent} + in_flight={in_flight}"
        )
    pending = d.queue.bytes_dequeued - d.bytes_sent
    if pending < 0:
        yield (
            f"link {d.queue.name}: sent more bytes ({d.bytes_sent}) than "
            f"ever dequeued ({d.queue.bytes_dequeued})"
        )
    if not d._busy and pending != 0:
        yield (
            f"link {d.queue.name}: idle with {pending} dequeued-but-unsent "
            f"bytes"
        )


def check_channel(ch) -> Iterator[str]:
    """The wireless cell: frames and bytes across both directions."""
    uq, dq = ch.uplink_queue, ch.downlink_queue
    in_flight = 1 if ch._busy else 0
    frames = ch.frames_up + ch.frames_down
    if uq.dequeued + dq.dequeued != frames + in_flight:
        yield (
            f"channel {ch.name}: dequeued={uq.dequeued + dq.dequeued} != "
            f"frames_tx={frames} + in_flight={in_flight}"
        )
    if ch.bytes_lost < ch.frames_lost:
        yield (
            f"channel {ch.name}: frames_lost={ch.frames_lost} but only "
            f"{ch.bytes_lost} bytes lost"
        )
    pending = (
        uq.bytes_dequeued + dq.bytes_dequeued
        - ch.bytes_up - ch.bytes_down - ch.bytes_lost
    )
    if pending < 0:
        yield (
            f"channel {ch.name}: delivered+lost bytes exceed dequeued "
            f"bytes by {-pending}"
        )
    if not ch._busy and pending != 0:
        yield (
            f"channel {ch.name}: idle with {pending} dequeued bytes "
            f"neither delivered nor recorded lost"
        )
    if len(ch._up_order) != uq.depth_packets:
        yield (
            f"channel {ch.name}: uplink arrival order holds "
            f"{len(ch._up_order)} tickets but {uq.depth_packets} packets "
            f"are queued (leak or loss)"
        )
    if len(ch._down_order) != dq.depth_packets:
        yield (
            f"channel {ch.name}: downlink arrival order holds "
            f"{len(ch._down_order)} tickets but {dq.depth_packets} packets "
            f"are queued (leak or loss)"
        )


# ----------------------------------------------------------------------
# bittorrent layer
# ----------------------------------------------------------------------
def check_bucket(b) -> Iterator[str]:
    """Token bucket: tokens always within ``[0, burst]``, sane config."""
    tokens = b.tokens  # lazy refill is idempotent: same value either way
    if tokens < -EPS:
        yield f"token bucket: negative balance {tokens}"
    if tokens > b.burst + EPS:
        yield f"token bucket: {tokens} tokens exceed burst {b.burst}"
    if b.burst < 0:
        yield f"token bucket: negative burst {b.burst}"
    if b.rate is not None and b.rate < 0:
        yield f"token bucket: negative rate {b.rate}"


def check_connection(conn) -> Iterator[str]:
    """Per-connection TCP sanity (sequence space, counters, RTO)."""
    label = conn._trace_label
    snd = conn.snd
    # The FIN occupies one sequence number that snd.nxt/snd.end never
    # cover, so a half-closed connection whose FIN was acknowledged —
    # the peer vanished before sending its own FIN — legitimately rests
    # at una == old-nxt + 1 (same +1 the pair checker admits).
    una = snd.una
    if (
        conn._fin_sent
        and conn._local_fin_seq is not None
        and una == conn._local_fin_seq + 1
    ):
        una -= 1
    if not una <= snd.nxt <= snd.end:
        yield (
            f"tcp {label}: sequence disorder una={snd.una} "
            f"nxt={snd.nxt} end={snd.end}"
        )
    if snd.nxt > conn._max_sent:
        yield (
            f"tcp {label}: nxt={snd.nxt} beyond highest transmitted "
            f"sequence {conn._max_sent}"
        )
    st = conn.stats
    if st.payload_bytes_acked > st.payload_bytes_sent:
        yield (
            f"tcp {label}: acked {st.payload_bytes_acked} > sent "
            f"{st.payload_bytes_sent} payload bytes"
        )
    rtt = conn.rtt
    if rtt._backoff < 1.0:
        yield f"tcp {label}: RTO backoff multiplier {rtt._backoff} < 1"
    if not rtt.min_rto - EPS <= rtt.rto <= rtt.max_rto + EPS:
        yield (
            f"tcp {label}: rto {rtt.rto} outside "
            f"[{rtt.min_rto}, {rtt.max_rto}]"
        )


def check_connection_pair(a, b) -> Iterator[str]:
    """Cross-host law: the receiver ``b`` never runs ahead of sender ``a``.

    ``a._max_sent`` (not ``snd.nxt``) is the sender-side frontier:
    go-back-N rewinds ``nxt`` after an RTO, but what the peer may have
    received is bounded by the highest sequence ever transmitted.  The
    ``+ 1`` admits the FIN's sequence number.
    """
    if b.rcv is None:
        return
    label = f"{a._trace_label} | peer {b._trace_label}"
    if b.rcv.rcv_nxt > a._max_sent + 1:
        yield (
            f"tcp pair {label}: receiver at {b.rcv.rcv_nxt} but sender "
            f"only ever transmitted up to {a._max_sent}"
        )
    if a.snd.una > b.rcv.rcv_nxt:
        yield (
            f"tcp pair {label}: sender believes {a.snd.una} acknowledged "
            f"but receiver expects {b.rcv.rcv_nxt}"
        )
    if b.stats.payload_bytes_delivered > a.stats.payload_bytes_sent:
        yield (
            f"tcp pair {label}: {b.stats.payload_bytes_delivered} payload "
            f"bytes delivered exceed {a.stats.payload_bytes_sent} sent"
        )


def check_client(client, received_from) -> Iterator[str]:
    """Piece-manager / bitfield / availability / ledger mutual consistency.

    ``received_from`` maps a remote peer ID to the bytes this client's
    block-arrival hook actually saw from that ID (accumulated by the
    auditor); the ledger may never credit an ID beyond that.
    """
    from ..bittorrent.piece_manager import REQUESTED

    name = client.name
    manager = client.manager
    bitfield = manager.bitfield

    expected_bytes = left_sum(
        client.torrent.piece_size(i) for i in bitfield.indices()
    )
    if manager.bytes_completed != expected_bytes:
        yield (
            f"client {name}: bytes_completed={manager.bytes_completed} but "
            f"bitfield pieces total {expected_bytes} bytes"
        )

    have = set(bitfield.indices())
    for index, partial in manager._partials.items():
        if index in have:
            yield (
                f"client {name}: piece {index} is both complete and partial"
            )
        requested = {
            n for n, state in enumerate(partial.states) if state == REQUESTED
        }
        timed = set(partial.requested_at)
        if requested != timed:
            yield (
                f"client {name}: piece {index} REQUESTED blocks "
                f"{sorted(requested)} disagree with request timestamps "
                f"{sorted(timed)}"
            )
        if partial.complete:
            yield (
                f"client {name}: piece {index} fully held yet still partial"
            )

    expected_avail: dict = {}
    for peer in list(client.peers.values()) + list(client._pending):
        if peer.closed or not peer._bitfield_counted:
            continue
        for index in peer.peer_bitfield.indices():
            expected_avail[index] = expected_avail.get(index, 0) + 1
    actual_avail = {i: c for i, c in client.availability.items() if c != 0}
    if actual_avail != expected_avail:
        diff = {
            i: (actual_avail.get(i, 0), expected_avail.get(i, 0))
            for i in set(actual_avail) | set(expected_avail)
            if actual_avail.get(i, 0) != expected_avail.get(i, 0)
        }
        yield (
            f"client {name}: availability map out of sync with peer "
            f"bitfields (piece: (counted, actual)) {diff}"
        )

    ledger = client.ledger
    for peer_id in ledger.known_ids():
        credited = ledger.raw_credit(peer_id)
        delivered = received_from.get(peer_id, 0.0)
        if credited > delivered + EPS:
            yield (
                f"client {name}: ledger credits {credited} bytes to "
                f"{peer_id} but only {delivered} were received from it"
            )

    codec = getattr(manager, "codec", None)
    if codec is not None and not codec.trivial:
        # Grouped codec: the manager's incremental group bookkeeping must
        # agree with a from-scratch recount of the bitfield.
        counts = codec.group_counts(bitfield)
        if manager._group_have != counts:
            yield (
                f"client {name}: incremental group counts "
                f"{manager._group_have} disagree with bitfield recount "
                f"{counts}"
            )
        decodable = [c >= codec.required(g) for g, c in enumerate(counts)]
        if manager._decodable != decodable:
            yield (
                f"client {name}: decodable flags {manager._decodable} "
                f"disagree with recount {decodable}"
            )
        if manager._decodable_count != left_sum(decodable):
            yield (
                f"client {name}: _decodable_count="
                f"{manager._decodable_count} but {left_sum(decodable)} groups "
                f"are decodable"
            )
        if manager.complete != codec.is_complete(bitfield):
            yield (
                f"client {name}: manager.complete={manager.complete} but "
                f"codec.is_complete={codec.is_complete(bitfield)}"
            )
        if manager.source_bytes_decoded != codec.decoded_bytes(bitfield):
            yield (
                f"client {name}: source_bytes_decoded="
                f"{manager.source_bytes_decoded} but codec recovers "
                f"{codec.decoded_bytes(bitfield)} bytes"
            )


# ----------------------------------------------------------------------
# wp2p layer
# ----------------------------------------------------------------------
def check_am(am) -> Iterator[str]:
    """AM: every flow's YOUNG/MATURE status matches its cwnd estimate."""
    from ..wp2p.age_manipulation import MATURE, YOUNG

    for key, flow in am._flows.items():
        expected = YOUNG if flow.cwnd_estimate < am.gamma_bytes else MATURE
        if flow.status not in (YOUNG, MATURE):
            yield (
                f"am {am.host.name} flow {key}: illegal status "
                f"{flow.status!r}"
            )
        elif flow.status != expected:
            yield (
                f"am {am.host.name} flow {key}: status {flow.status!r} but "
                f"cwnd_estimate={flow.cwnd_estimate} vs "
                f"gamma={am.gamma_bytes} implies {expected!r}"
            )
        if flow.dupack_count < 0:
            yield (
                f"am {am.host.name} flow {key}: negative dupack count "
                f"{flow.dupack_count}"
            )
    if am.dupacks_dropped > am.dupacks_seen:
        yield (
            f"am {am.host.name}: dropped {am.dupacks_dropped} dupacks but "
            f"only saw {am.dupacks_seen}"
        )


def check_lihd(lihd) -> Iterator[str]:
    """LIHD: the cap stays in band and the bucket enforces exactly it."""
    if not lihd.running:
        return
    name = lihd.client.name
    if not lihd.u_floor - EPS <= lihd.u_cur <= lihd.u_max + EPS:
        yield (
            f"lihd {name}: u_cur={lihd.u_cur} outside "
            f"[{lihd.u_floor}, {lihd.u_max}]"
        )
    bucket_rate = lihd.client.upload_bucket.rate
    if bucket_rate is None or abs(bucket_rate - lihd.u_cur) > EPS:
        yield (
            f"lihd {name}: upload bucket enforces {bucket_rate} but "
            f"controller decided {lihd.u_cur}"
        )
