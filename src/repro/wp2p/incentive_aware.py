"""Incentive-Aware operations (IA) — wP2P §4.2.

Two techniques:

* **LIHD** (Linear Increase, History-based Decrease) upload-rate control.
  On a shared wireless channel uploads steal airtime from downloads
  (Figure 3(b)), so the optimal upload rate is the *smallest* one that
  still earns full tit-for-tat credit.  LIHD climbs toward it linearly
  (+α per window while downloads keep improving) and backs off with
  increasing aggression (−β·k after k consecutive non-improving windows).
  The paper's pseudo-code (Figure 6) is implemented verbatim.

* **Identity retention**: keep the same peer ID across task re-initiations
  within a swarm, so tit-for-tat credit accumulated at remote peers
  survives a handoff.  Realized as part of the wP2P IP-change policy in
  :mod:`repro.wp2p.client`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..sim import PeriodicTask, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..bittorrent.client import BitTorrentClient


class LIHDController:
    """Adaptive upload-rate control for a client on a shared channel.

    Parameters (paper names in parentheses):

    u_max (``Umax``)
        Hard upload ceiling in bytes/second.
    alpha / beta (``α`` / ``β``)
        Linear increment and base decrement, bytes/second per window.
    interval
        Measurement window length; download rates are window-averaged.
    rate_source
        Callable returning the downstream rate LIHD optimises, bytes/s.
        Defaults to the client's own P2P download rate.  Passing another
        application's rate turns this into the paper's deferred
        **seed-LIHD** (§4.2: "LIHD can also be used for controlling the
        rate of uploads when the mobile peer becomes a seed, such that the
        uploads do not impact ... other non-P2P applications") — see
        :func:`seed_lihd`.
    """

    #: Lower clamp on the cap, bytes/second — shutting uploads off
    #: entirely just triggers tit-for-tat punishment (§3.3).
    u_floor = 2_048.0

    def __init__(
        self,
        client: "BitTorrentClient",
        u_max: float,
        alpha: float = 10_240.0,
        beta: float = 10_240.0,
        interval: float = 5.0,
        rate_source: Optional[Callable[[], float]] = None,
    ) -> None:
        if u_max < self.u_floor:
            raise ValueError(f"u_max must be at least u_floor ({self.u_floor:g})")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.client = client
        self.sim: Simulator = client.sim
        self.u_max = u_max
        self.alpha = alpha
        self.beta = beta
        # Initialization per Figure 6: Ucur = 0.5 * Umax — but never below
        # the floor; with e.g. u_max=3000 the raw 0.5 * Umax would start
        # the controller outside its own [u_floor, u_max] operating band.
        self.u_cur = max(self.u_floor, 0.5 * u_max)
        self._d_prev = 0.0
        self._dec_count = 0
        self._downloaded_at_window_start = 0.0
        self._rate_source = rate_source
        self._task = PeriodicTask(client.sim, interval, self._update)
        self.history: List[Tuple[float, float, float]] = []  # (t, U, D)
        self.running = False
        audit = client.sim.audit
        if audit is not None:
            audit.register_lihd(self)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._downloaded_at_window_start = self.client.downloaded.total
        self.client.set_upload_limit(self.u_cur)
        self._task.start()

    def _measure_rate(self) -> float:
        """Downstream rate over the last window, bytes/second."""
        if self._rate_source is not None:
            return self._rate_source()
        total = self.client.downloaded.total
        rate = (total - self._downloaded_at_window_start) / self._task.interval
        self._downloaded_at_window_start = total
        return rate

    def stop(self) -> None:
        self.running = False
        self._task.stop()

    # ------------------------------------------------------------------
    def _update(self) -> None:
        """One LIHD window: compare download rates, adjust the upload cap."""
        d_cur = self._measure_rate()

        decision = "hold"
        if self._d_prev != 0:
            if self._d_prev < d_cur:
                self.u_cur += self.alpha
                self._dec_count = 0
                decision = "increase"
            else:
                self._dec_count += 1
                self.u_cur -= self.beta * self._dec_count
                decision = "decrease"
        self.u_cur = min(self.u_max, max(self.u_floor, self.u_cur))
        self._d_prev = d_cur
        self.client.set_upload_limit(self.u_cur)
        self.history.append((self.sim.now, self.u_cur, d_cur))
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "wp2p", "lihd_update", client=self.client.name,
                decision=decision, upload_cap=self.u_cur,
                download_rate=d_cur, dec_count=self._dec_count,
            )


def seed_lihd(
    client: "BitTorrentClient",
    foreground_rate: Callable[[], float],
    u_max: float,
    interval: float = 5.0,
) -> LIHDController:
    """LIHD for a *seeding* mobile peer (the paper's §4.2 future work).

    A seed earns nothing from tit-for-tat, but its uploads still steal
    shared-channel airtime from every other application on the mobile host.
    This controller adapts the seed's upload cap to maximise a foreground
    application's download rate (e.g. a
    :class:`~repro.apps.bulk.ForegroundDownload`), keeping the peer a
    useful seed without degrading the user's own traffic.  Its step
    sizes and floor are :class:`LIHDController`'s defaults.
    """
    return LIHDController(
        client, u_max, interval=interval, rate_source=foreground_rate
    )


class IdentityRetention:
    """Stores the swarm-scoped peer ID so handoffs can restore it.

    The paper: "IA component stores the peer ID of the mobile host when the
    application is started and when there is IP layer handoff, the IA
    component restores the stored peer ID to maintain incentives."  The
    retention is *per swarm* (per info-hash): incentives earned in one
    swarm never leak into another.
    """

    def __init__(self) -> None:
        self._ids: dict[str, str] = {}

    def remember(self, info_hash: str, peer_id: str) -> None:
        self._ids[info_hash] = peer_id

    def recall(self, info_hash: str) -> Optional[str]:
        return self._ids.get(info_hash)
