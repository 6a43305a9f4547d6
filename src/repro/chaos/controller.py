"""The :class:`ChaosController`: arms a :class:`ChaosSchedule` on a swarm.

The controller is the bridge from declarative fault events to the
simulation's actual hooks: it schedules one kernel callback per fault at
arm time and, when each fires, resolves the event's target against the
scenario's *current* peers and drives the layer-specific fault hooks —
``disconnect_host``/``reconnect_host`` for crashes and blackouts,
:meth:`~repro.net.mobility.MobilityController.trigger_handoff` for
storms, ``apply_degradation`` on links/channels,
:meth:`~repro.bittorrent.tracker.Tracker.set_serving` or a tracker-host
blackout for outages, and
:meth:`~repro.bittorrent.piece_manager.PieceManager.set_corrupt_probability`
for corruption bursts.

Determinism contract
--------------------
Every fault fires at a time fixed by the schedule (plus, for
:class:`~repro.chaos.schedule.PeerChurn`, arrival offsets drawn **once at
arm time** from the sim's seeded ``chaos.churn.<n>`` streams).  No wall
clock, no unseeded randomness: the same seed and schedule replay
bit-identically, serial or parallel, which is what lets chaos runs share
the runner's result cache.

Conflict rules — at most one host-level fault owns a peer at a time:

* a peer already down (chaos fault in progress, or mid mobility handoff)
  is **skipped** by later host-level faults, counted in
  ``chaos.skipped``;
* crashing or blacking out a peer with a running
  :class:`~repro.net.mobility.MobilityController` stops the controller
  for the fault's duration and restarts it on recovery, so the two
  mechanisms never race for the interface.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.mobility import disconnect_host, reconnect_host
from .recovery import RecoveryTracker
from .schedule import (
    ChaosSchedule,
    CorruptionBurst,
    FaultEvent,
    HandoffStorm,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
)


class ChaosController:
    """Executes one :class:`ChaosSchedule` against one scenario.

    ``scenario`` is duck-typed: anything with ``sim``, ``internet``,
    ``alloc``, ``peers`` (name -> handle with ``host``/``client``/
    ``channel``/``mobility``), ``tracker`` and ``tracker_host`` works —
    i.e. :class:`~repro.bittorrent.swarm.SwarmScenario` and anything
    shaped like it.
    """

    def __init__(self, scenario, schedule: ChaosSchedule) -> None:
        self.scenario = scenario
        self.sim = scenario.sim
        self.schedule = schedule
        self.armed = False
        self.faults_injected = 0
        self.faults_skipped = 0
        #: (sim time, event kind, target) for every fault that fired
        self.log: List[Tuple[float, str, str]] = []
        # peers currently held down by a chaos fault (crash/blackout)
        self._down: Dict[str, bool] = {}
        # mobility controllers paused by a fault, to restart on recovery
        self._paused_mobility: Dict[str, object] = {}
        self._tracker_down = False
        #: MTTR accounting (see :mod:`repro.chaos.recovery`); started at
        #: arm time whenever the schedule actually contains faults.
        self.recovery: Optional[RecoveryTracker] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "ChaosController":
        """Schedule every fault on the simulator.  Idempotent."""
        if self.armed:
            return self
        self.armed = True
        if len(self.schedule) > 0:
            self.recovery = RecoveryTracker(self.scenario).start()
        for n, event in enumerate(self.schedule):
            if isinstance(event, PeerChurn):
                self._arm_churn(n, event)
            elif isinstance(event, HandoffStorm):
                for shot in range(event.count):
                    self.sim.schedule(
                        event.start + shot * event.spacing,
                        self._fire_handoff, event,
                    )
            else:
                self.sim.schedule(event.start, self._fire, event)
        return self

    def _arm_churn(self, index: int, event: PeerChurn) -> None:
        """Draw the Poisson arrival times now (seeded), schedule each."""
        if event.rate_per_min <= 0 or event.duration <= 0:
            return
        rng = self.sim.rng.stream(f"chaos.churn.{index}")
        mean_gap = 60.0 / event.rate_per_min
        t = event.start
        while True:
            t += rng.expovariate(1.0 / mean_gap)
            if t > event.start + event.duration:
                break
            # Pick the victim index now too, so firing order alone
            # (not dict iteration at fire time) decides who dies.
            pick = rng.random()
            self.sim.schedule_at(t, self._fire_churn_crash, event, pick)

    # ------------------------------------------------------------------
    # Target resolution (at fire time, so late-built peers are seen)
    # ------------------------------------------------------------------
    def _resolve(self, target: str) -> List[object]:
        # Exempt handles (e.g. the hybrid backend's background facade,
        # whose faults are modelled through the fluid engine) are only
        # reachable by exact name, never by wildcard/class targets.
        peers = {
            name: h for name, h in self.scenario.peers.items()
            if not getattr(h, "chaos_exempt", False)
        }
        if target == "*":
            return list(peers.values())
        if target == "wired":
            return [h for h in peers.values() if not h.wireless]
        if target == "wireless":
            return [h for h in peers.values() if h.wireless]
        if target == "mobile":
            return [h for h in peers.values() if h.mobility is not None]
        handle = self.scenario.peers.get(target)
        return [handle] if handle is not None else []

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        if isinstance(event, PeerCrash):
            self._fire_peer_crash(event)
        elif isinstance(event, TrackerOutage):
            self._fire_tracker_outage(event)
        elif isinstance(event, LinkBlackout):
            self._fire_link_blackout(event)
        elif isinstance(event, LinkDegradation):
            self._fire_link_degradation(event)
        elif isinstance(event, CorruptionBurst):
            self._fire_corruption_burst(event)
        else:  # pragma: no cover - schedule validates kinds
            raise TypeError(f"unhandled fault event {event!r}")

    def _record(self, kind: str, target: str, **fields: object) -> None:
        self.faults_injected += 1
        self.log.append((self.sim.now, kind, target))
        if self.recovery is not None:
            self.recovery.note_fault(kind, target)
        if self.sim.trace.enabled:
            self.sim.trace.event("chaos", kind, target=target, **fields)

    def _skip(self, kind: str, target: str, reason: str) -> None:
        self.faults_skipped += 1
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "chaos", "skipped", fault=kind, target=target, reason=reason
            )

    # -- peer crash / churn --------------------------------------------
    def _fire_peer_crash(self, event: PeerCrash) -> None:
        for handle in self._resolve(event.target):
            self._crash_peer(handle, event.downtime)

    def _fire_churn_crash(self, event: PeerChurn, pick: float) -> None:
        candidates = [
            h for h in self._resolve(event.target)
            if not self._down.get(h.name) and h.host.ip is not None
        ]
        if not candidates:
            self._skip("peer_churn", event.target, "no_live_candidate")
            return
        victim = candidates[int(pick * len(candidates)) % len(candidates)]
        self._crash_peer(victim, event.downtime, kind="peer_churn")

    def _crash_peer(self, handle, downtime: Optional[float], kind: str = "peer_crash") -> None:
        if self._down.get(handle.name):
            self._skip(kind, handle.name, "already_down")
            return
        if handle.host.ip is None:
            self._skip(kind, handle.name, "mid_handoff")
            return
        self._down[handle.name] = True
        self._pause_mobility(handle)
        handle.client.stop(announce=False)  # a crash sends no goodbye
        disconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
        self._record(kind, handle.name, downtime=downtime)
        if downtime is not None:
            self.sim.schedule(downtime, self._rejoin_peer, handle)

    def _rejoin_peer(self, handle) -> None:
        reconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
        handle.client.start()
        self._down.pop(handle.name, None)
        self._resume_mobility(handle)
        if self.sim.trace.enabled:
            self.sim.trace.event("chaos", "peer_rejoin", target=handle.name)

    # -- link blackout (radio dead, process alive) ---------------------
    def _fire_link_blackout(self, event: LinkBlackout) -> None:
        for handle in self._resolve(event.target):
            if self._down.get(handle.name):
                self._skip(event.kind, handle.name, "already_down")
                continue
            if handle.host.ip is None:
                self._skip(event.kind, handle.name, "mid_handoff")
                continue
            self._down[handle.name] = True
            self._pause_mobility(handle)
            disconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
            self._record(event.kind, handle.name, duration=event.duration)
            self.sim.schedule(event.duration, self._end_blackout, handle)

    def _end_blackout(self, handle) -> None:
        reconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
        self._down.pop(handle.name, None)
        self._resume_mobility(handle)
        if self.sim.trace.enabled:
            self.sim.trace.event("chaos", "blackout_end", target=handle.name)

    def _pause_mobility(self, handle) -> None:
        mobility = getattr(handle, "mobility", None)
        if mobility is not None and mobility._running:
            mobility.stop()
            self._paused_mobility[handle.name] = mobility

    def _resume_mobility(self, handle) -> None:
        mobility = self._paused_mobility.pop(handle.name, None)
        if mobility is not None:
            mobility.start()

    # -- tracker outage ------------------------------------------------
    def _fire_tracker_outage(self, event: TrackerOutage) -> None:
        if self._tracker_down:
            self._skip(event.kind, "tracker", "already_down")
            return
        self._tracker_down = True
        tracker = self.scenario.tracker
        if event.mode == "refuse":
            tracker.set_serving(False)
            self.sim.schedule(event.duration, self._end_tracker_refuse)
        else:
            host = self.scenario.tracker_host
            old_ip = disconnect_host(host, self.scenario.internet, self.scenario.alloc)
            self.sim.schedule(event.duration, self._end_tracker_blackout, old_ip)
        self._record(event.kind, "tracker", mode=event.mode, duration=event.duration)

    def _end_tracker_refuse(self) -> None:
        self.scenario.tracker.set_serving(True)
        self._tracker_down = False
        if self.sim.trace.enabled:
            self.sim.trace.event("chaos", "tracker_restored", mode="refuse")

    def _end_tracker_blackout(self, old_ip: Optional[str]) -> None:
        # Come back at the *original* address: that is what every
        # torrent's metainfo points at.
        reconnect_host(
            self.scenario.tracker_host,
            self.scenario.internet,
            self.scenario.alloc,
            ip=old_ip,
        )
        self._tracker_down = False
        if self.sim.trace.enabled:
            self.sim.trace.event("chaos", "tracker_restored", mode="blackout")

    # -- link degradation ----------------------------------------------
    def _fire_link_degradation(self, event: LinkDegradation) -> None:
        for handle in self._resolve(event.target):
            if handle.wireless:
                handle.channel.apply_degradation(
                    rate_factor=event.rate_factor,
                    ber=event.ber,
                    extra_delay=event.extra_delay,
                )
                restore: Callable[[], None] = handle.channel.clear_degradation
            else:
                link = handle.host.interface.link
                if link is None or not hasattr(link, "apply_degradation"):
                    self._skip(event.kind, handle.name, "no_link")
                    continue
                link.apply_degradation(
                    rate_factor=event.rate_factor, extra_delay=event.extra_delay
                )
                restore = link.clear_degradation
            self._record(
                event.kind, handle.name,
                rate_factor=event.rate_factor, duration=event.duration,
            )
            self.sim.schedule(event.duration, restore)

    # -- handoff storm -------------------------------------------------
    def _fire_handoff(self, event: HandoffStorm) -> None:
        for handle in self._resolve(event.target):
            if self._down.get(handle.name):
                self._skip(event.kind, handle.name, "already_down")
                continue
            mobility = handle.mobility
            if mobility is not None:
                if mobility.trigger_handoff(downtime=event.downtime):
                    self._record(event.kind, handle.name, downtime=event.downtime)
                else:
                    self._skip(event.kind, handle.name, "mobility_busy")
                continue
            # No controller: apply the same down/up sequence directly.
            if handle.host.ip is None:
                self._skip(event.kind, handle.name, "mid_handoff")
                continue
            self._down[handle.name] = True
            disconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
            self._record(event.kind, handle.name, downtime=event.downtime)
            self.sim.schedule(event.downtime, self._end_manual_handoff, handle)

    def _end_manual_handoff(self, handle) -> None:
        reconnect_host(handle.host, self.scenario.internet, self.scenario.alloc)
        self._down.pop(handle.name, None)

    # -- corruption burst ----------------------------------------------
    def _fire_corruption_burst(self, event: CorruptionBurst) -> None:
        for handle in self._resolve(event.target):
            manager = handle.client.manager
            if manager.complete:
                self._skip(event.kind, handle.name, "already_complete")
                continue
            previous = manager.corrupt_probability
            manager.set_corrupt_probability(event.probability)
            self._record(
                event.kind, handle.name,
                probability=event.probability, duration=event.duration,
            )
            self.sim.schedule(
                event.duration, manager.set_corrupt_probability, previous
            )
