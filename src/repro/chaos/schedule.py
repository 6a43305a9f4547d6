"""Typed fault events and the declarative :class:`ChaosSchedule`.

A schedule is plain data: a tuple of typed fault events, each pinned to
absolute simulated time.  Frozen dataclasses throughout, so a schedule
compares by value and ships to runner worker processes unchanged.

Targets are resolved **at fire time** by the
:class:`~repro.chaos.controller.ChaosController`, so a schedule can be
attached before the topology's peers exist.  A target is either a peer
name or one of the selector classes ``"*"`` (every peer), ``"wired"``,
``"wireless"``, or ``"mobile"`` (peers with a mobility controller).

The only stochastic event is :class:`PeerChurn`, whose individual
crash/rejoin times are drawn at arm time from the simulation's seeded
``chaos.churn`` stream — a run is still a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

TARGET_CLASSES = ("*", "wired", "wireless", "mobile")


@dataclass(frozen=True)
class FaultEvent:
    """Base class: every fault starts at an absolute simulated time."""

    start: float

    kind = "fault"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"{type(self).__name__}.start must be >= 0")


@dataclass(frozen=True)
class PeerCrash(FaultEvent):
    """A peer process dies (client stopped, host unrouted) at ``start``;
    with a ``downtime`` it rejoins at a fresh address, otherwise never."""

    target: str = "*"
    downtime: Optional[float] = None

    kind = "peer_crash"


@dataclass(frozen=True)
class PeerChurn(FaultEvent):
    """Poisson crash/rejoin churn against ``target`` peers.

    Over ``[start, start + duration]`` crash events arrive at ``rate``
    per minute (per matching peer); each crashed peer rejoins after
    ``downtime`` seconds.  Arrival times are drawn at arm time from the
    sim's seeded ``chaos.churn`` stream.
    """

    duration: float = 60.0
    rate_per_min: float = 1.0
    downtime: float = 10.0
    target: str = "*"

    kind = "peer_churn"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration < 0 or self.rate_per_min < 0 or self.downtime < 0:
            raise ValueError("peer_churn durations and rate must be >= 0")


@dataclass(frozen=True)
class TrackerOutage(FaultEvent):
    """The tracker goes dark for ``duration`` seconds.

    ``mode="blackout"`` (default) disconnects the tracker *host* — SYNs
    toward it strand, exactly like the failure-injection tests' manual
    ``disconnect_host`` — and brings it back at its original address.
    ``mode="refuse"`` keeps the host routable but answers every announce
    with a tracker error (a dead web server on a live box).
    """

    duration: float = 30.0
    mode: str = "blackout"

    kind = "tracker_outage"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError("tracker_outage duration must be positive")
        if self.mode not in ("blackout", "refuse"):
            raise ValueError(f"unknown tracker_outage mode {self.mode!r}")


@dataclass(frozen=True)
class LinkBlackout(FaultEvent):
    """Pure connectivity loss: the target's interface goes down at
    ``start`` and comes back (at a fresh address) after ``duration``.
    The client application keeps running throughout — this is a dead
    radio, not a dead process."""

    duration: float = 10.0
    target: str = "wireless"

    kind = "link_blackout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError("link_blackout duration must be positive")


@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """Degraded — not dead — connectivity for ``duration`` seconds:
    capacity scaled by ``rate_factor``, wireless BER replaced by ``ber``
    (ignored on wired links), propagation delay inflated by
    ``extra_delay``.  Presets compose several of these back-to-back into
    ramps."""

    duration: float = 30.0
    target: str = "wireless"
    rate_factor: float = 0.5
    ber: Optional[float] = None
    extra_delay: float = 0.0

    kind = "link_degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError("link_degradation duration must be positive")
        if self.rate_factor <= 0:
            raise ValueError("rate_factor must be positive")
        if self.ber is not None and not 0.0 <= self.ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")


@dataclass(frozen=True)
class HandoffStorm(FaultEvent):
    """``count`` forced IP handoffs against ``target``, ``spacing``
    seconds apart, each with ``downtime`` seconds of interface-down.
    Peers with a :class:`~repro.net.mobility.MobilityController` are
    handed off through it (their own schedule resumes afterwards);
    peers without one get the same disconnect/reconnect sequence
    applied directly."""

    target: str = "wireless"
    count: int = 3
    spacing: float = 20.0
    downtime: float = 1.0

    kind = "handoff_storm"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 1:
            raise ValueError("handoff_storm count must be >= 1")
        if self.spacing <= 0 or self.downtime < 0:
            raise ValueError("handoff_storm spacing/downtime invalid")


@dataclass(frozen=True)
class CorruptionBurst(FaultEvent):
    """For ``duration`` seconds every piece the target verifies is
    corrupted with ``probability`` (then re-downloaded); the pre-fault
    probability is restored afterwards."""

    duration: float = 30.0
    target: str = "*"
    probability: float = 0.2

    kind = "corruption_burst"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError("corruption_burst duration must be positive")
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("probability must be in [0, 1)")


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered, immutable set of fault events for one run."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.start, e.kind)))
        object.__setattr__(self, "events", ordered)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __add__(self, other: "ChaosSchedule") -> "ChaosSchedule":
        return ChaosSchedule(self.events + other.events)

    @property
    def empty(self) -> bool:
        return not self.events
