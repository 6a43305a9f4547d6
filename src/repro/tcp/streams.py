"""Byte-stream bookkeeping for one direction of a TCP connection.

:class:`SendStream` assigns application messages byte ranges in the outgoing
stream and can (re)build the message attachments for any segment range —
retransmissions recompute them, so delivery is idempotent.

:class:`ReceiveStream` reassembles arbitrary (possibly overlapping,
out-of-order) byte ranges, advances the cumulative acknowledgment point, and
releases application messages in stream order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple


class SendStream:
    """Outgoing stream state: una / nxt / end pointers plus message ranges."""

    __slots__ = ("una", "nxt", "end", "_message_ends", "_ends")

    def __init__(self, initial_seq: int) -> None:
        self.una = initial_seq  # oldest unacknowledged byte
        self.nxt = initial_seq  # next byte to transmit
        self.end = initial_seq  # end of data written by the application
        # (end_seq, message) sorted by end_seq; pruned as data is acked.
        self._message_ends: List[Tuple[int, Any]] = []
        # The end_seq column alone, entry for entry: bisecting plain ints
        # stays in C, bisecting the pairs would compare messages.
        self._ends: List[int] = []

    # ------------------------------------------------------------------
    # Application side
    # ------------------------------------------------------------------
    def write_message(self, message: Any, length: int) -> Tuple[int, int]:
        """Append a message of ``length`` stream bytes; returns its range."""
        if length <= 0:
            raise ValueError("message length must be positive")
        start = self.end
        self.end += length
        self._message_ends.append((self.end, message))
        self._ends.append(self.end)
        return start, self.end

    @property
    def unsent_bytes(self) -> int:
        return self.end - self.nxt

    @property
    def flight_size(self) -> int:
        return self.nxt - self.una

    @property
    def buffered_bytes(self) -> int:
        """Bytes written but not yet acknowledged (flight + unsent)."""
        return self.end - self.una

    # ------------------------------------------------------------------
    # Transmission side
    # ------------------------------------------------------------------
    def messages_in(self, start: int, end: int) -> Tuple[Tuple[int, Any], ...]:
        """Messages whose final byte lies in ``(start, end]``.

        A message attaches to a segment iff the segment carries the
        message's last byte; ranges are ``[seq, seq + len)`` so the message
        ending at ``e`` rides any segment with ``start < e <= end``.
        """
        ends = self._ends
        lo = bisect_right(ends, start)
        hi = bisect_right(ends, end, lo)
        return tuple(self._message_ends[lo:hi]) if hi > lo else ()

    def ack_to(self, ack: int) -> int:
        """Process a cumulative ACK; returns bytes newly acknowledged.

        ``ack`` may exceed ``nxt`` when ``nxt`` was rewound for go-back-N
        retransmission and the receiver already held later bytes; the
        pointers snap forward in that case.
        """
        if ack <= self.una:
            return 0
        if ack > self.end:
            raise ValueError(f"ack {ack} beyond stream end {self.end}")
        acked = ack - self.una
        self.una = ack
        if self.nxt < ack:
            self.nxt = ack
        lo = bisect_right(self._ends, ack)
        if lo:
            del self._message_ends[:lo]
            del self._ends[:lo]
        return acked


class ReceiveStream:
    """Incoming stream reassembly and in-order message delivery."""

    __slots__ = (
        "rcv_nxt", "_segments", "_pending", "_pending_heap",
        "bytes_delivered", "duplicate_bytes", "_last_insert_point",
    )

    def __init__(self, initial_seq: int) -> None:
        self.rcv_nxt = initial_seq
        # Sorted, disjoint out-of-order byte ranges strictly above rcv_nxt.
        self._segments: List[Tuple[int, int]] = []
        # Pending message objects keyed by their end sequence number.
        self._pending: Dict[int, Any] = {}
        self._pending_heap: List[int] = []
        self.bytes_delivered = 0
        self.duplicate_bytes = 0
        self._last_insert_point: Optional[int] = None

    # ------------------------------------------------------------------
    def add(self, seq: int, length: int, messages: Tuple[Tuple[int, Any], ...] = ()) -> bool:
        """Insert a received byte range; returns True if rcv_nxt advanced."""
        for end_seq, message in messages:
            if end_seq > self.rcv_nxt and end_seq not in self._pending:
                self._pending[end_seq] = message
                heapq.heappush(self._pending_heap, end_seq)
        if length <= 0:
            return False
        start, end = seq, seq + length
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            self.duplicate_bytes += length
            return False
        if start < rcv_nxt:
            start = rcv_nxt
        if start == rcv_nxt and not self._segments:
            # In-order arrival with no reassembly gap — the overwhelmingly
            # common case: advance directly, skipping the merge machinery.
            self.bytes_delivered += end - rcv_nxt
            self.rcv_nxt = end
            self._last_insert_point = start
            return True
        self._insert(start, end)
        before = rcv_nxt
        self._advance()
        return self.rcv_nxt > before

    def pop_deliverable(self) -> List[Any]:
        """Messages whose final byte is now below rcv_nxt, in stream order."""
        out: List[Any] = []
        heap = self._pending_heap
        while heap and heap[0] <= self.rcv_nxt:
            end_seq = heapq.heappop(heap)
            message = self._pending.pop(end_seq, None)
            if message is not None:
                out.append(message)
        return out

    def sack_ranges(self, limit: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Out-of-order ranges for SACK options, most recent first.

        Per RFC 2018 the first block must contain the most recently
        received segment, so the sender keeps learning fresh reassembly
        state from every DUPACK; remaining slots cycle through the other
        ranges lowest-first.
        """
        if not self._segments:
            return ()
        ordered: List[Tuple[int, int]] = []
        recent = self._last_insert_point
        if recent is not None:
            for s, e in self._segments:
                if s <= recent < e:
                    ordered.append((s, e))
                    break
        for rng in self._segments:
            if len(ordered) >= limit:
                break
            if rng not in ordered:
                ordered.append(rng)
        return tuple(ordered[:limit])

    @property
    def out_of_order_bytes(self) -> int:
        return sum(e - s for s, e in self._segments)

    @property
    def has_gap(self) -> bool:
        return bool(self._segments)

    # ------------------------------------------------------------------
    def _insert(self, start: int, end: int) -> None:
        """Merge ``[start, end)`` into the sorted disjoint range list."""
        segments = self._segments
        idx = bisect_left(segments, (start, start))
        # Absorb a predecessor that overlaps or abuts the new range.
        if idx > 0 and segments[idx - 1][1] >= start:
            idx -= 1
        merge_to = idx
        new_start, new_end = start, end
        absorbed = 0
        while merge_to < len(segments) and segments[merge_to][0] <= new_end:
            seg_start, seg_end = segments[merge_to]
            absorbed += seg_end - seg_start
            new_start = min(new_start, seg_start)
            new_end = max(new_end, seg_end)
            merge_to += 1
        covered_growth = (new_end - new_start) - absorbed
        if covered_growth < end - start:
            self.duplicate_bytes += (end - start) - covered_growth
        segments[idx:merge_to] = [(new_start, new_end)]
        self._last_insert_point = start

    def _advance(self) -> None:
        """Move rcv_nxt through any now-contiguous leading range."""
        segments = self._segments
        while segments and segments[0][0] <= self.rcv_nxt:
            start, end = segments.pop(0)
            if end > self.rcv_nxt:
                self.bytes_delivered += end - self.rcv_nxt
                self.rcv_nxt = end
