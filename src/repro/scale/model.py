"""Typed inputs and outputs of the mean-field fluid swarm engine.

A fluid swarm is described by a handful of **peer classes** — population
aggregates sharing one behaviour (wired seed, wired leecher, mobile
leecher with the default client, mobile leecher running wP2P) — plus the
torrent geometry and a few global rates.  The engine
(:class:`~repro.scale.fluid.FluidSwarm`) evolves per-class populations
and mean download progress with deterministic ODE-style updates, so its
cost is a function of the *number of classes and time steps*, never the
number of peers: a 10^6-peer swarm integrates exactly as fast as a
10-peer one.

Everything here is plain data (frozen dataclasses with JSON-friendly
fields) so fluid scenarios hash, cache, and ship to runner workers the
same way packet-level ones do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..summation import left_sum

#: Piece-selection surrogates used for the analytic playability curve.
SELECTION_POLICIES = ("rarest", "inorder")

#: Content-mode surrogates (see :mod:`repro.coding`): ``""`` is the
#: default pipeline with no starvation modelling, ``"replication"``
#: models custody-seeded replication (each piece has one holder), and
#: ``"group"`` models k-of-n erasure groups.
CONTENT_MODES = ("", "replication", "group")

#: The calibration constants of :class:`FluidParams`, shared by the CDN tier.
EFFICIENCY = 0.60
STARTUP_DELAY = 3.0

#: Progress fraction at which a fluid leecher becomes a useful uploader.
WARM_FRACTION = 0.05

#: wP2P LIHD operating point as a fraction of a class's ``upload_rate``:
#: the steady-state ``u_cur / u_max`` the controller converges to.
LIHD_LEVEL = 0.5


@dataclass(frozen=True)
class PeerClass:
    """One population aggregate of behaviourally identical peers.

    Rates are bytes/second.  ``wireless_shared`` marks the paper's
    shared-medium wireless cell: the class's uploads and downloads draw
    on one combined airtime budget (``download_rate``), so every byte
    uploaded costs ``upload_coupling`` bytes of download capacity —
    the Figure 3(b) effect LIHD exists to manage.

    Mobile classes hand off IP addresses every ``handoff_interval``
    seconds on average, losing ``handoff_downtime`` seconds of
    connectivity plus a per-client recovery penalty: the default client
    tears its task down and rejoins under a fresh peer ID
    (``restart_delay``, forfeiting tit-for-tat credit, §3.4), while a
    wP2P client retains its identity and pays only ``reconnect_cost``
    (§5.2.4).
    """

    name: str
    count: float
    upload_rate: float
    download_rate: float
    seed: bool = False
    mobile: bool = False
    wp2p: bool = False
    wireless_shared: bool = False
    upload_coupling: float = 1.0
    handoff_interval: Optional[float] = None
    handoff_downtime: float = 1.0
    restart_delay: float = 15.0
    reconnect_cost: float = 1.0
    #: Piece-selection surrogate for the analytic playability curve.
    selection: str = "rarest"
    #: New peers of this class joining per second (entering at p=0).
    arrival_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.upload_rate < 0 or self.download_rate <= 0:
            raise ValueError("rates must be positive (upload may be 0)")
        if self.handoff_interval is not None and self.handoff_interval <= 0:
            raise ValueError("handoff_interval must be positive")
        if self.selection not in SELECTION_POLICIES:
            raise ValueError(
                f"unknown selection policy {self.selection!r}; "
                f"choose from {', '.join(SELECTION_POLICIES)}"
            )
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")

    @property
    def recovery_cost(self) -> float:
        """Seconds of post-handoff recovery this client class pays."""
        return self.reconnect_cost if self.wp2p else self.restart_delay

    def availability(self) -> float:
        """Duty-cycle fraction of time this class is usefully connected."""
        if self.handoff_interval is None:
            return 1.0
        cycle = self.handoff_interval + self.handoff_downtime + self.recovery_cost
        return self.handoff_interval / cycle


@dataclass(frozen=True)
class FluidParams:
    """Everything that determines one fluid-swarm integration.

    ``efficiency`` and ``startup_delay`` are the two calibration
    constants anchoring the fluid tier to the packet-level simulator
    (the ``figx_xval`` scenario gates it): ``efficiency`` folds protocol
    overhead, TCP dynamics and imperfect pipelining into one goodput
    factor, and ``startup_delay`` models the announce/connect/slow-start
    transient before pieces begin to flow.
    """

    file_size: int
    piece_length: int
    classes: Tuple[PeerClass, ...]
    dt: float = 0.25
    max_time: float = 86_400.0
    efficiency: float = EFFICIENCY
    startup_delay: float = STARTUP_DELAY
    #: Leecher departure (abort) rate per online peer per second.
    departure_rate: float = 0.0
    sample_interval: float = 5.0
    #: Content-mode surrogate (see :data:`CONTENT_MODES`).  ``""`` — the
    #: default — models nothing and leaves pure-fluid runs bit-identical;
    #: ``"replication"``/``"group"`` multiply download rates by
    #: :func:`content_rate_factor` of the current piece-holder
    #: availability (custody-seeded content starves when its holders go
    #: dark; k-of-n redundancy softens that).
    content_mode: str = ""
    code_k: int = 1
    code_n: int = 1

    def __post_init__(self) -> None:
        if self.content_mode not in CONTENT_MODES:
            raise ValueError(
                f"unknown content_mode {self.content_mode!r}; "
                f"choose from {CONTENT_MODES}"
            )
        if self.content_mode == "group" and (
            self.code_n < 2 or not 1 <= self.code_k <= self.code_n
        ):
            raise ValueError(
                f"bad group geometry k={self.code_k} n={self.code_n}"
            )
        if self.file_size <= 0 or self.piece_length <= 0:
            raise ValueError("file_size and piece_length must be positive")
        if self.dt <= 0 or self.max_time <= 0:
            raise ValueError("dt and max_time must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.startup_delay < 0:
            raise ValueError("startup_delay must be >= 0")
        if not self.classes:
            raise ValueError("need at least one peer class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate peer class names: {names}")

    @property
    def num_pieces(self) -> int:
        return max(1, -(-self.file_size // self.piece_length))

    @property
    def total_peers(self) -> float:
        return left_sum(c.count for c in self.classes)


def coded_fetchability(availability: float, k: int, n: int) -> float:
    """Probability the next *needed* coded piece of a k-of-n group is
    reachable when each individual coded piece is available with
    probability ``availability``.

    The worst-case-alternates surrogate: to finish a group a leecher
    needs ``k`` of ``n`` pieces, so even after ``k - 1`` are in hand
    there are ``n - k + 1`` interchangeable candidates for the last slot
    — the fetch stalls only when *all* of them are dark::

        f(a) = 1 - (1 - a)^(n - k + 1)

    Replication is the degenerate ``k = n = 1`` geometry (each piece its
    own group, no alternates): ``f(a) = a``.  For any real redundancy
    ``f(a) >= a``, monotone in ``a`` and in ``n - k`` — exactly the
    ordering the survival gate asserts.
    """
    if not 1 <= k <= n:
        raise ValueError(f"bad geometry k={k} n={n}")
    a = min(1.0, max(0.0, availability))
    return 1.0 - (1.0 - a) ** (n - k + 1)


def content_rate_factor(
    content_mode: str, availability: float, k: int = 1, n: int = 1
) -> float:
    """Download-rate multiplier for a content mode at a piece-holder
    availability (the fluid tier's coded-availability surrogate).

    ``""`` models nothing (factor 1.0 — the pre-coding engine);
    ``"replication"`` is custody-seeded replication, where each piece
    has a single holder so fetchability *is* the holder availability;
    ``"group"`` is k-of-n erasure coding via :func:`coded_fetchability`.
    """
    if content_mode == "":
        return 1.0
    if content_mode == "replication":
        return coded_fetchability(availability, 1, 1)
    if content_mode == "group":
        return coded_fetchability(availability, k, n)
    raise ValueError(f"unknown content_mode {content_mode!r}")


def expected_prefix_fraction(p: float, num_pieces: int) -> float:
    """Expected in-order-prefix fraction of an ``num_pieces``-piece file
    whose pieces are independently complete with probability ``p``.

    The mean-field surrogate for the paper's §3.6 playability metric
    under rarest-first (order-agnostic) fetching:
    ``E[prefix]/m = (1/m) * sum_{i=1..m} p^i = p(1-p^m) / (m(1-p))``.
    """
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    m = max(1, num_pieces)
    return p * (1.0 - p ** m) / (m * (1.0 - p))


def playability_surrogate(
    p: float, num_pieces: int, selection: str
) -> float:
    """Playable fraction for mean progress ``p`` under a selection policy.

    ``"inorder"`` (the wP2P/streaming surrogate) keeps the prefix equal
    to the downloaded fraction; ``"rarest"`` uses the order-agnostic
    expectation of :func:`expected_prefix_fraction`.
    """
    if selection == "inorder":
        return min(1.0, max(0.0, p))
    return expected_prefix_fraction(p, num_pieces)


@dataclass
class ClassResult:
    """Outcome of one peer class over the integration."""

    name: str
    completion_time: Optional[float]
    mean_goodput: float
    seed: bool = False
    progress: List[Tuple[float, float]] = field(default_factory=list)
    playability: List[Tuple[float, float]] = field(default_factory=list)
    final_progress: float = 0.0
    peak_online: float = 0.0

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "completion_time": self.completion_time,
            "mean_goodput": self.mean_goodput,
            "seed": self.seed,
            "final_progress": self.final_progress,
            "peak_online": self.peak_online,
            "progress": [[t, p] for t, p in self.progress],
            "playability": [[d, play] for d, play in self.playability],
        }


@dataclass
class FluidResult:
    """One completed fluid-swarm integration: per-class outcomes + totals."""

    classes: Dict[str, ClassResult]
    steps: int
    horizon: float
    peak_population: float
    utilization_mean: float

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "classes": {
                name: cr.to_jsonable() for name, cr in sorted(self.classes.items())
            },
            "steps": self.steps,
            "horizon": self.horizon,
            "peak_population": self.peak_population,
            "utilization_mean": self.utilization_mean,
        }

    def leecher_completion_time(self) -> Optional[float]:
        """Latest completion among leecher classes (None if any censored).

        A class that never had a peer (``peak_online == 0``) has nothing
        to complete and censors nothing; one that had population and
        lost it (a permanent crash) still does.
        """
        times: List[float] = []
        for cr in self.classes.values():
            if cr.seed:
                continue
            if cr.completion_time is None:
                if cr.peak_online == 0.0:
                    continue
                return None
            times.append(cr.completion_time)
        return max(times) if times else None
