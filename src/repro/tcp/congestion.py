"""NewReno congestion control.

Implements the sender-side window dynamics the paper's measurements rest on:
slow start, congestion avoidance, fast retransmit on the third duplicate
ACK, fast recovery with window inflation, partial-ACK retransmission
(NewReno, RFC 3782 — standard in deployed stacks of the paper's era), and
multiplicative backoff on timeout.

All quantities are in bytes.  The class is a pure state machine: the
connection tells it what happened; it answers with what the window is.
"""

from __future__ import annotations

from typing import Optional

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
FAST_RECOVERY = "fast_recovery"

#: Slow-start threshold of a new connection, bytes (the classic 64 KiB).
INITIAL_SSTHRESH = 65535


class NewRenoCongestionControl:
    """Congestion window state machine for one connection direction."""

    def __init__(
        self,
        mss: int = 1460,
        initial_cwnd_segments: int = 2,
    ) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd = initial_cwnd_segments * mss
        self.ssthresh = INITIAL_SSTHRESH
        self.min_cwnd = mss  # one segment
        self.state = SLOW_START
        self.recover: Optional[int] = None
        self.fast_retransmits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_new_ack(self, acked_bytes: int, snd_nxt: int, ack: int) -> bool:
        """A cumulative ACK advanced ``snd_una`` by ``acked_bytes``.

        Returns True if the sender should retransmit the segment at the new
        ``snd_una`` (NewReno partial ACK during fast recovery).
        """
        if self.state == FAST_RECOVERY:
            assert self.recover is not None
            if ack >= self.recover:
                # Full acknowledgment: recovery complete, deflate.
                self.cwnd = self.ssthresh
                self.state = (
                    SLOW_START if self.cwnd < self.ssthresh else CONGESTION_AVOIDANCE
                )
                self.recover = None
                return False
            # Partial ACK: another segment was lost in the same window.
            # Retransmit it, deflate by the acked amount, stay in recovery.
            self.cwnd = max(self.min_cwnd, self.cwnd - acked_bytes + self.mss)
            return True

        if self.cwnd < self.ssthresh:
            self.state = SLOW_START
            self.cwnd += self.mss
        else:
            self.state = CONGESTION_AVOIDANCE
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        return False

    def on_dupack(self, count: int, flight_size: int, snd_nxt: int) -> bool:
        """A duplicate ACK arrived (``count`` consecutive so far).

        Returns True when the sender must fast-retransmit (third dupack).
        """
        if self.state == FAST_RECOVERY:
            # Window inflation: each further dupack signals a departure.
            self.cwnd += self.mss
            return False
        if count == 3:
            self.ssthresh = max(flight_size // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss
            self.state = FAST_RECOVERY
            self.recover = snd_nxt
            self.fast_retransmits += 1
            return True
        return False

    def on_timeout(self, flight_size: int) -> None:
        """Retransmission timer expired: collapse to one segment."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.min_cwnd
        self.state = SLOW_START
        self.recover = None
        self.timeouts += 1

    # ------------------------------------------------------------------
    @property
    def in_recovery(self) -> bool:
        return self.state == FAST_RECOVERY

