"""Round-trip-time estimation and retransmission timeout.

Standard Jacobson/Karels smoothing (RFC 6298) with Karn's rule: samples are
never taken from retransmitted segments, and the RTO backs off exponentially
on successive timeouts.
"""

from __future__ import annotations

from typing import Optional


class RTTEstimator:
    """SRTT/RTTVAR smoothing with exponential timeout backoff."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0
    granularity = 0.01  # clock granularity G, seconds

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
    ) -> None:
        if not 0 < min_rto <= initial_rto <= max_rto:
            raise ValueError("need 0 < min_rto <= initial_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = initial_rto
        self._backoff = 1.0
        self.samples = 0

    @property
    def rto(self) -> float:
        """Current retransmission timeout including backoff, clamped."""
        return min(self.max_rto, max(self.min_rto, self._rto * self._backoff))

    def sample(self, rtt: float) -> None:
        """Fold in a new RTT measurement (seconds) and clear any backoff."""
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self._rto = self.srtt + max(self.granularity, self.K * self.rttvar)
        self._backoff = 1.0

    def backoff(self) -> None:
        """Double the timeout after an expiry (Karn), capped at max_rto.

        The cap keeps ``_rto * _backoff`` from overshooting ``max_rto``,
        but it must never push the multiplier below 1: when ``_rto``
        already exceeds ``max_rto`` the ratio is < 1, and using it
        verbatim would *shrink* the effective timeout after an expiry.
        ``rto`` clamps to ``max_rto`` either way; the floor keeps the
        backoff monotone.
        """
        self._backoff = min(
            self._backoff * 2.0, max(1.0, self.max_rto / max(self._rto, 1e-9))
        )

    def reset_backoff(self) -> None:
        self._backoff = 1.0
