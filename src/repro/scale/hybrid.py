"""Hybrid multi-resolution backend: packet focal hosts in a fluid swarm.

The paper's wP2P mechanisms (AM/IA/MA, §5) are TCP-level behaviours the
packet simulator captures in tens-of-peers swarms, while the population
regimes of Violaris & Mavromoustakis and Neely (PAPERS.md) need the
mean-field fluid tier.  This module couples the two so one question can
be asked across both scales: a handful of **focal hosts** run the full
packet stack (TCP, choker, wP2P machinery, strategy policies) inside a
background swarm of thousands evolved by
:class:`~repro.scale.fluid.FluidSwarm`.

Coupling contract (one exchange per ``coupling_interval`` of model
time, with a one-interval lag in each direction):

* **background → focal** — the fluid state is presented to the packet
  clients by a synthetic facade peer named ``"background"``: its
  bitfield tracks the background's aggregate piece availability
  (:meth:`FluidSwarm.availability_proxy`), and its uplink rate is set to
  the fluid allocation for the focal demand
  (``utilization × Σ focal download capacity``).  Protocol overhead,
  TCP dynamics and choker behaviour then apply naturally packet-side.
* **focal → background** — focal traffic enters the fluid ODEs as
  boundary source terms: bytes the facade actually downloaded from
  focal peers plus the spare upload capacity of *complete* focal
  clients become ``external_supply``, and the access download capacity
  of incomplete focal leechers becomes ``external_demand``.

What is **not** captured: per-piece rarity inside the background (the
facade's bitfield fills in index order), background peers connecting to
each other through the packet stack, and tit-for-tat credit between a
focal host and any individual background peer (the facade is one
aggregate identity).

With an empty background the driver runs :meth:`HybridSpec.packet_swarm`
alone — no facade, no fluid engine, no coupling events — so it is event
for event the packet tier's run of the same spec.  That is how the
``figx_xval`` scenario (:mod:`repro.experiments.figx_xval`) can demand
exact agreement of an all-focal hybrid run with the packet run: with
the swarm built in one place, the gate checks this driver and its focal
measurement.

Chaos schedules split by target: the ambient
:class:`~repro.chaos.ChaosController` strikes the focal peers (the
facade is exempt — see ``PeerHandle.chaos_exempt``) while the same
schedule, mapped through :mod:`repro.scale.chaosmap`, strikes the
background classes.  Ambient strategy mixes apply to focal leechers
only; the background is behaviourally described by its peer classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bittorrent import ClientConfig
from ..bittorrent.swarm import PeerHandle, SwarmScenario
from ..chaos.schedule import ChaosSchedule
from ..summation import left_sum
from ..wp2p import WP2PClient, rr_only_config
from .fluid import FluidSwarm
from .model import FluidParams, FluidResult, PeerClass

#: Name of the synthetic aggregate peer presenting the background swarm.
FACADE_NAME = "background"


@dataclass(frozen=True)
class HybridSpec:
    """One swarm of seeds, wired hosts and mobile hosts, for every tier.

    The focal hosts (``focal_*``, whole peers) are what the packet tier
    builds (:meth:`packet_swarm`); the background (``background_*``,
    populations) exists on the fluid tier only.  :meth:`fluid_params`
    decomposes both into peer classes from the same fields, so the
    packet, fluid and hybrid runs of one spec describe the same hosts
    and only the dynamics are approximated.  Rates are bytes/second,
    counts are peers.
    """

    focal_seeds: int = 1
    focal_wired: int = 0
    focal_mobile: int = 0
    wp2p: bool = False
    background_seeds: float = 0.0
    background_wired: float = 0.0
    background_mobile: float = 0.0
    file_size: int = 1 << 20
    piece_length: int = 1 << 16
    seed_up_rate: float = 64_000.0
    wired_up_rate: float = 32_000.0
    wired_down_rate: float = 400_000.0
    mobile_up_rate: float = 16_000.0
    wireless_rate: float = 80_000.0
    handoff_interval: Optional[float] = None
    handoff_downtime: float = 1.0
    restart_delay: float = 15.0
    #: Model seconds between boundary-flow exchanges.
    coupling_interval: float = 2.0
    max_time: float = 3_600.0
    dt: float = 0.25

    def __post_init__(self) -> None:
        if min(self.focal_seeds, self.focal_wired, self.focal_mobile) < 0:
            raise ValueError("focal host counts must be >= 0")
        if self.focal_seeds + self.focal_wired + self.focal_mobile <= 0:
            raise ValueError("need at least one focal host")
        if min(self.background_seeds, self.background_wired,
               self.background_mobile) < 0:
            raise ValueError("background populations must be >= 0")
        if self.coupling_interval <= 0:
            raise ValueError("coupling_interval must be positive")

    @property
    def background_population(self) -> float:
        return (self.background_seeds + self.background_wired
                + self.background_mobile)

    @property
    def has_background(self) -> bool:
        return self.background_population > 0

    def peer_classes(self, focal: bool) -> List[PeerClass]:
        """The fluid classes of the focal hosts (``seeds``, ``wired``,
        ``mobile``) or of the background (``bg_seeds``, ``bg_wired``,
        ``bg_mobile``); an empty population has no class."""
        if focal:
            prefix = ""
            seeds, wired, mobile = self.focal_seeds, self.focal_wired, self.focal_mobile
        else:
            prefix = "bg_"
            seeds, wired, mobile = (self.background_seeds, self.background_wired,
                                    self.background_mobile)
        classes: List[PeerClass] = []
        if seeds:
            classes.append(PeerClass(
                prefix + "seeds", float(seeds), self.seed_up_rate, 1_000_000.0,
                seed=True,
            ))
        if wired:
            classes.append(PeerClass(
                prefix + "wired", float(wired), self.wired_up_rate,
                self.wired_down_rate,
            ))
        if mobile:
            classes.append(PeerClass(
                prefix + "mobile", float(mobile), self.mobile_up_rate,
                self.wireless_rate,
                mobile=True, wp2p=self.wp2p, wireless_shared=True,
                handoff_interval=self.handoff_interval,
                handoff_downtime=self.handoff_downtime,
                restart_delay=self.restart_delay,
                selection="inorder" if self.wp2p else "rarest",
            ))
        return classes

    def fluid_params(self, focal: bool = True) -> FluidParams:
        """The fluid decomposition: the background classes, then, with
        ``focal``, the focal hosts as classes of their own."""
        classes = self.peer_classes(focal=False)
        if focal:
            classes += self.peer_classes(focal=True)
        return FluidParams(
            file_size=self.file_size,
            piece_length=self.piece_length,
            classes=tuple(classes),
            dt=self.dt,
            max_time=self.max_time,
        )

    def packet_swarm(self, seed: int) -> SwarmScenario:
        """The focal hosts as a packet swarm: seeds ``s<i>``, wired
        leechers ``w<i>`` and mobile leechers ``m<i>`` (handing off every
        ``handoff_interval`` seconds when it is set)."""
        sc = SwarmScenario(
            seed=seed,
            file_size=self.file_size,
            piece_length=self.piece_length,
            tracker_interval=60.0,
        )
        for i in range(self.focal_seeds):
            sc.add_wired_peer(f"s{i}", complete=True,
                              down_rate=1_000_000, up_rate=self.seed_up_rate)
        for i in range(self.focal_wired):
            sc.add_wired_peer(f"w{i}", down_rate=self.wired_down_rate,
                              up_rate=self.wired_up_rate)
        for i in range(self.focal_mobile):
            if self.wp2p:
                handle = sc.add_wireless_peer(
                    f"m{i}", rate=self.wireless_rate,
                    config=rr_only_config(), client_factory=WP2PClient,
                )
            else:
                handle = sc.add_wireless_peer(
                    f"m{i}", rate=self.wireless_rate,
                    config=ClientConfig(task_restart_delay=self.restart_delay),
                )
            if self.handoff_interval is not None:
                sc.add_mobility(handle, interval=self.handoff_interval,
                                downtime=self.handoff_downtime)
        return sc


@dataclass
class FocalResult:
    """Packet-level outcome of one focal host."""

    name: str
    completion_time: Optional[float]
    mean_goodput: float
    seed: bool = False
    mobile: bool = False
    wp2p: bool = False

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "completion_time": self.completion_time,
            "mean_goodput": self.mean_goodput,
            "seed": self.seed,
            "mobile": self.mobile,
            "wp2p": self.wp2p,
        }


@dataclass
class HybridResult:
    """One completed hybrid co-simulation."""

    focal: Dict[str, FocalResult]
    background: Optional[FluidResult]
    horizon: float
    packet_events: int
    fluid_steps: int
    couplings: int
    utilization_mean: float
    external_supply_mean: float
    external_demand_mean: float
    max_time: float

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "focal": {
                name: fr.to_jsonable() for name, fr in sorted(self.focal.items())
            },
            "background": (
                self.background.to_jsonable() if self.background else None
            ),
            "horizon": self.horizon,
            "packet_events": self.packet_events,
            "fluid_steps": self.fluid_steps,
            "couplings": self.couplings,
            "utilization_mean": self.utilization_mean,
            "external_supply_mean": self.external_supply_mean,
            "external_demand_mean": self.external_demand_mean,
            "max_time": self.max_time,
        }

    def focal_completion_time(self) -> float:
        """Mean focal-leecher completion (censored at ``max_time``)."""
        times = [
            fr.completion_time if fr.completion_time is not None else self.max_time
            for fr in self.focal.values() if not fr.seed
        ]
        return left_sum(times) / len(times) if times else 0.0

    def focal_mean_goodput(self) -> float:
        rates = [fr.mean_goodput for fr in self.focal.values() if not fr.seed]
        return left_sum(rates) / len(rates) if rates else 0.0


class HybridSwarm:
    """Co-simulation driver binding a packet swarm to a fluid background.

    ``chaos`` is the schedule applied to the **background** through
    :mod:`repro.scale.chaosmap`; the packet side picks up the ambient
    chaos preset on its own (the scenario builder arms it), which is
    how one schedule splits across the two resolutions.
    """

    def __init__(
        self,
        spec: HybridSpec,
        seed: int = 0,
        chaos: Optional[ChaosSchedule] = None,
    ) -> None:
        self.spec = spec
        self.fluid: Optional[FluidSwarm] = (
            FluidSwarm(spec.fluid_params(focal=False), chaos=chaos)
            if spec.has_background else None
        )
        self.scenario = spec.packet_swarm(seed)
        self._focal_seed_names = {
            name for name, handle in self.scenario.peers.items()
            if handle.client.complete
        }
        self.facade: Optional[PeerHandle] = (
            self._add_facade() if self.fluid is not None else None
        )
        self._last_uploaded: Dict[str, float] = {}
        self._last_facade_down = 0.0
        self._couplings = 0
        self._utilization_sum = 0.0
        self._supply_sum = 0.0
        self._demand_sum = 0.0
        if self.fluid is not None:
            self.scenario.sim.schedule(
                spec.coupling_interval, self._couple
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_facade(self) -> PeerHandle:
        """The aggregate background peer, added after every focal host.

        Added last so focal peer construction (and any strategy-mix
        draws) is independent of the background's existence; the facade
        itself never draws a strategy and is exempt from packet-side
        chaos (background faults arrive through the fluid engine).
        """
        spec = self.spec
        n_focal = len(self.scenario.peers)
        availability = self.fluid.availability_proxy()
        num_pieces = self.scenario.torrent.num_pieces
        initial = int(availability * num_pieces + 1e-9)
        config = ClientConfig(
            max_peers=max(30, 2 * n_focal),
            unchoke_slots=max(4, n_focal),
            numwant=max(50, 2 * n_focal),
        )
        handle = self.scenario.add_wired_peer(
            FACADE_NAME,
            complete=initial >= num_pieces,
            initial_pieces=(
                range(initial) if 0 < initial < num_pieces else None
            ),
            down_rate=2_000_000.0,
            # One background seed's worth of capacity until the first
            # coupling exchange installs the real fluid allocation (an
            # in-flight packet keeps its serialization rate, so starting
            # near zero would stall the handshake for seconds).
            up_rate=spec.seed_up_rate,
            config=config,
            strategy="reference",
        )
        handle.chaos_exempt = True
        return handle

    # ------------------------------------------------------------------
    # Coupling
    # ------------------------------------------------------------------
    def _focal_download_capacity(self, handle: PeerHandle) -> float:
        if handle.wireless:
            return self.spec.wireless_rate
        return self.spec.wired_down_rate

    def _focal_upload_capacity(self, handle: PeerHandle) -> float:
        if handle.wireless:
            return self.spec.mobile_up_rate
        if handle.name in self._focal_seed_names:
            return self.spec.seed_up_rate
        return self.spec.wired_up_rate

    def _couple(self) -> None:
        """One boundary-flow exchange (both directions, one-interval lag)."""
        spec = self.spec
        sim = self.scenario.sim
        interval = spec.coupling_interval

        # focal → background: measured facade intake plus the spare
        # upload capacity of complete focal clients.
        supply = 0.0
        demand = 0.0
        for name, handle in self.scenario.peers.items():
            if handle is self.facade:
                continue
            client = handle.client
            up_total = float(client.uploaded.total)
            up_delta = up_total - self._last_uploaded.get(name, 0.0)
            self._last_uploaded[name] = up_total
            if client.complete:
                cap = self._focal_upload_capacity(handle)
                supply += max(0.0, cap - up_delta / interval)
            else:
                demand += self._focal_download_capacity(handle)
        facade_down = float(self.facade.client.downloaded.total)
        supply += (facade_down - self._last_facade_down) / interval
        self._last_facade_down = facade_down

        self.fluid.external_supply = supply
        self.fluid.external_demand = demand
        self.fluid.advance(sim.now)

        # background → focal: fluid allocation for the focal demand,
        # applied as the facade's raw uplink rate (protocol overhead
        # then happens naturally packet-side).
        utilization = self.fluid.last_utilization
        rate = max(1.0, utilization * demand)
        self.facade.host.interface.link.uplink.set_rate(rate)
        self._sync_facade_bitfield()

        self._couplings += 1
        self._utilization_sum += utilization
        self._supply_sum += supply
        self._demand_sum += demand
        if sim.now < spec.max_time:
            sim.schedule(interval, self._couple)

    def _sync_facade_bitfield(self) -> None:
        """Grow the facade's bitfield with background piece availability.

        Grants whole pieces (index order — per-piece rarity inside the
        background is deliberately not modelled), keeping
        ``bytes_completed`` consistent with the bitfield and announcing
        each grant with HAVE so focal availability maps stay audit-clean.
        Pieces mid-download from focal peers are skipped (they complete
        through the normal block path).
        """
        client = self.facade.client
        manager = client.manager
        bitfield = manager.bitfield
        target = int(self.fluid.availability_proxy() * bitfield.size + 1e-9)
        if bitfield.count() >= target:
            return
        for index in list(bitfield.missing()):
            if index in manager._partials:
                continue
            bitfield.set(index)
            manager.bytes_completed += client.torrent.piece_size(index)
            for conn in client.connected_peers():
                conn.send_have(index)
            if bitfield.count() >= target:
                break

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> HybridResult:
        spec = self.spec
        sc = self.scenario
        sc.start_all()
        leechers = [
            name for name, handle in sc.peers.items()
            if handle is not self.facade and not handle.client.complete
        ]
        sc.run_until_complete(names=leechers, timeout=spec.max_time)

        focal: Dict[str, FocalResult] = {}
        for name, handle in sc.peers.items():
            if handle is self.facade:
                continue
            client = handle.client
            completion = client.completion_time
            was_seed = name not in leechers
            goodput = 0.0
            if not was_seed:
                t = completion if completion is not None else spec.max_time
                if t > 0:
                    goodput = client.manager.bytes_completed / t
            focal[name] = FocalResult(
                name=name,
                completion_time=0.0 if was_seed else completion,
                mean_goodput=goodput,
                seed=was_seed,
                mobile=handle.wireless,
                wp2p=spec.wp2p and handle.wireless,
            )

        background: Optional[FluidResult] = None
        fluid_steps = 0
        if self.fluid is not None:
            # Bring the background up to the packet horizon, then close.
            self.fluid.external_supply = 0.0
            self.fluid.external_demand = 0.0
            self.fluid.advance(sc.sim.now)
            background = self.fluid.finish()
            fluid_steps = background.steps

        couplings = self._couplings or 1
        return HybridResult(
            focal=focal,
            background=background,
            horizon=sc.sim.now,
            packet_events=sc.sim.events_processed,
            fluid_steps=fluid_steps,
            couplings=self._couplings,
            utilization_mean=self._utilization_sum / couplings,
            external_supply_mean=self._supply_sum / couplings,
            external_demand_mean=self._demand_sum / couplings,
            max_time=spec.max_time,
        )


def run_hybrid(
    spec: HybridSpec,
    seed: int = 0,
    chaos: Optional[ChaosSchedule] = None,
) -> HybridResult:
    """Build a :class:`HybridSwarm` and run it to completion."""
    return HybridSwarm(spec, seed=seed, chaos=chaos).run()
